"""Self-test of the benchmark at tiny sizes (about two minutes, mostly Spark).

    python3 perfbench/selftest.py

Checks that

* every workload prints, with ``--trace 0`` and ``--trace 1``, exactly the
  end-to-end or per-layer metrics ``BENCHMARK.json`` names, each with its
  unit, in a last line with exactly the keys the contract fixes;
* ``BENCHMARK.json`` lists the workloads of :mod:`workloads` with the same
  rationale;
* two runs of one workload and seed record identical work fingerprints;
* a corrupted event stream fails the output check with a non-zero exit;
* a directory holding only ``BENCHMARK.json`` and the benchmark's files
  makes the command exit non-zero without printing a result.

Exits non-zero on the first failed check.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    p = subprocess.run(
        [sys.executable, str(cwd / SPEC["command"][1]), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return p.returncode, p.stdout.strip().splitlines()


def tiny(workload: str, seed: int, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
            "--trace", str(trace), "--size", "tiny"]


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main() -> int:
    check(
        {w["name"]: w["why"] for w in SPEC["workloads"]}
        == {w.name: w.why for w in WORKLOADS.values()},
        "BENCHMARK.json lists every workload with its rationale",
    )
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        check(
            {m["name"]: m["unit"] for m in SPEC[key]} == table,
            f"BENCHMARK.json {key} metrics match the ones the benchmark prints",
        )

    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = bench(*tiny(name, 3, trace))
            line = json.loads(out[-1]) if out else {}
            check(code == 0 and line.get("correct") is True,
                  f"{name} trace={trace}: exit 0 with correct outputs")
            check(set(line) == {"correct", "attempted", "failed", "metrics"}
                  and line["attempted"] >= 1 and line["failed"] == 0,
                  f"{name} trace={trace}: result line has the contract's keys")
            got = {k: m["unit"] for k, m in line["metrics"].items()}
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            check(got == want and all(
                isinstance(m["value"], (int, float)) for m in line["metrics"].values()
            ), f"{name} trace={trace}: prints every {key} metric with its unit")

    records = []
    for _ in range(2):
        code, _ = bench(*tiny("snb", 11, 0))
        check(code == 0, "repeated run of one seed passes its fingerprint check")
        records.append(json.loads((run.OUT / "runs" / "snb-s11-t0.json").read_text()))
    check(records[0]["fingerprint"] == records[1]["fingerprint"],
          "two runs of one seed record identical counts")

    load = run.load_result

    def corrupted(path):
        res = load(path)
        if res.get("events"):
            res["events"] = res["events"][:-1]
        return res

    run.load_result = corrupted
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = run.main(tiny("snb", 12, 0))
    finally:
        run.load_result = load
    line = json.loads(buf.getvalue().strip().splitlines()[-1])
    check(code != 0 and line["correct"] is False,
          "a corrupted event stream fails the output check")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    code, out = bench(*tiny("snb", 0, 0), cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and not any(line.startswith("{") for line in out),
          "without the program's sources the command fails without a result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
