"""Write the stored reference tables figure-sweep's TABLES are checked against.

Run from the root of a checkout whose program produces the intended
figures; it overwrites bench/refs/:

    PYTHONPATH=src python3 bench/make_refs.py
"""

from workloads import FigureSweep, reference_path


def main():
    workload = FigureSweep()
    workload.setup()
    reference_path(()).parent.mkdir(exist_ok=True)
    for argv in workload.TABLES:
        rc, text = workload.run(argv)
        if rc != 0:
            raise SystemExit(f"command failed: {' '.join(argv)}")
        reference_path(argv).write_text(text)


if __name__ == "__main__":
    main()
