"""Record the reference outputs of every input family, full and quick sizes.

    python3 bench/record_reference.py

Run once, at the commit whose outputs define "correct"; the benchmark then
checks every later version against the table this writes. Re-recording after
the program changed would check the program against itself.
"""

import json
import os
import shutil
import sys

import run


def main():
    run.prepare()
    from workloads import FAMILIES, REFERENCE_PATH, WORKLOADS, run_call

    table = {}
    workdir = run.BENCH.parent / ".bench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for mode in ("full", "quick"):
            for name in sorted(WORKLOADS):
                recorded = {}
                for family in range(FAMILIES):
                    workload = WORKLOADS[name](family, quick=mode == "quick")
                    refs = []
                    for i, call in enumerate(workload.calls()):
                        result = run_call(call)
                        problems = workload.check_invariants(i, result)
                        if problems:
                            sys.exit(f"{mode} {name} family {family}: {problems}")
                        refs.append(workload.reference_of(i, result.output))
                    recorded[str(family)] = refs
                print(f"{mode} {name}: recorded {FAMILIES} families", flush=True)
                table.setdefault(mode, {})[name] = recorded
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
