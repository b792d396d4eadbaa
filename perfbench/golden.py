"""
Record golden.json: the digest of every benchmark op's output at this commit.

    python3 perfbench/golden.py

The benchmark fails any op whose digest differs from the recorded one, so
re-recording is a change to the benchmark, made only together with an
intended and stated change of output.  Every op must pass its tracker check
before its digest is recorded.
"""
from __future__ import annotations

import json
import sys

import workloads as w


def record(workload, items) -> dict[str, str]:
    digests = {}
    for item in items:
        key, digest, _, problems = workload.check(item, workload.run(item))
        if problems:
            raise SystemExit(f"{item}: {'; '.join(problems)}")
        digests[key] = digest
    return digests


def main() -> int:
    sys.path.insert(0, str(w.SRC))
    lib = w.Library()
    workdir = w.HERE.parent / ".perfbench_work" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    tables = w.Tables(lib)
    cli = w.Cli(lib, workdir)
    golden = {
        "catalog": record(w.Catalog(lib), lib.pairs()),
        "compare": record(w.Compare(lib), lib.pairs()),
        "tables": record(tables, [(n, code) for n, pool in tables.pools.items()
                                  for code in pool]),
        "cli": record(cli, cli.fixed_pass()),
    }
    w.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"recorded {sum(len(v) for v in golden.values())} digests in {w.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
