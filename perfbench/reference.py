"""A fixed pure-Python workload that times the host, not bvcorr.

    python3 perfbench/reference.py

It imports nothing from the repository.  Its work is the kind bvcorr does:
Fraction arithmetic, tuple keys and dict updates, in a fresh interpreter.
run.py times it as a process next to the jobs and scales the job times by
it (see `speed_factor` in run.py).  It prints one checksum line.
"""

from fractions import Fraction

ROUNDS = 12000


def main() -> None:
    table: dict = {}
    for i in range(1, ROUNDS):
        key = (i % 7, i % 11, i % 5)
        term = Fraction(i % 13 + 1, i % 17 + 1) * Fraction(2 * (i % 3) - 1, 3)
        table[key] = table.get(key, 0) + term
    print(sum(table.values()))


if __name__ == "__main__":
    main()
