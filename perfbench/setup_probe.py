"""Time a fresh process's set-up: import qgalois, build per-order structures.

    python3 perfbench/setup_probe.py CLI FAMILIES ORDER...

CLI and FAMILIES are 0 or 1: whether to import qgalois.cli, and whether to
build the coordinate families.  The cyclotomic context and the generator and
basis matrices are built for every ORDER.  Prints the CPU seconds taken,
measured from before the first qgalois import.
"""

import sys
import time


def main():
    start = time.process_time()
    from qgalois import CycScalar
    from qgalois.calculus import q_plane_families
    from qgalois.qplane import basis_matrices

    with_cli, families, *orders = (int(a) for a in sys.argv[1:])
    if with_cli:
        import qgalois.cli  # noqa: F401
    for n in orders:
        CycScalar.one(n)
        basis_matrices(n)
        if families:
            q_plane_families(n)
    print(time.process_time() - start)


if __name__ == "__main__":
    main()
