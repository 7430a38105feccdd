"""Hash every output of every perfbench operation, one line per operation.

    python3 tools/output_hashes.py --seed N [--out FILE]

Builds the operations of both perfbench workloads for seed N (21
``long_history_inexact`` library runs and 192 ``cli_sweep`` run + verify
pairs), runs each once, and hashes its outputs with SHA-256:

- a library run: the ``RunOutcome`` arrays and every block field, or the
  exception's type, message, ``block_index`` and partial outcome;
- a CLI run: both exit codes, the ``verify`` output, ``trajectory.csv``,
  ``blocks.csv`` and ``summary.jsonl`` without its ``wall_time``.

Each line also holds the operation's transition count. A change that must
leave every output as it is diffs this file against the committed
``OUTPUTS_seed<N>.json``. Another numpy or BLAS build can move the last bits
of ``lstsq`` and ``svd``, so the file names the versions it was taken with,
and the comparison is not part of the tier-1 tests.
"""

import os

# As in perfbench/run.py: one BLAS thread, set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import regulate.cli  # noqa: E402
import workloads  # noqa: E402
from tracing import TransitionCounter  # noqa: E402


def _digest(h, value) -> None:
    """Feed a value into the hash: dataclasses field by field, arrays by dtype,
    shape and bytes, anything else by its repr."""
    if dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _digest(h, getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        h.update(f"[{len(value)}]".encode())
        for item in value:
            _digest(h, item)
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    h.update(b";")


def _library_hash(long_history, case) -> str:
    h = hashlib.sha256()
    try:
        outcome = long_history._regulate(case)
    except Exception as err:  # the exception is the operation's output
        for value in (type(err).__name__, str(err), getattr(err, "block_index", None),
                      getattr(err, "partial_outcome", None)):
            _digest(h, value)
    else:
        _digest(h, outcome)
    return h.hexdigest()


def _cli_hash(path, out) -> str:
    h = hashlib.sha256()
    for command in ("run", "verify"):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = regulate.cli.main([command, "--config", str(path), "--out", str(out)])
        _digest(h, (command, code, printed.getvalue()))
    for name in ("trajectory.csv", "blocks.csv"):
        file = out / name
        _digest(h, (name, file.read_bytes() if file.exists() else None))
    summary = json.loads((out / "summary.jsonl").read_text(encoding="utf-8"))
    summary.pop("wall_time")
    _digest(h, json.dumps(summary, sort_keys=True))
    return h.hexdigest()


def operation_hashes(seed: int) -> list:
    """(operation name, transitions, SHA-256) for every operation of both workloads."""
    counter = TransitionCounter()
    rows = []

    def record(name, compute):
        before = counter.count
        digest = compute()
        rows.append((name, counter.count - before, digest))

    long_history = workloads.LongHistory(seed, counter)
    for i, case in enumerate(long_history.ops):
        record(f"long_history_inexact/{i:03d}", lambda: _library_hash(long_history, case))
    with tempfile.TemporaryDirectory(prefix="output_hashes-") as workdir:
        sweep = workloads.CliSweep(seed, counter, Path(workdir))
        try:
            for i, (path, out, _case) in enumerate(sweep.ops):
                record(f"cli_sweep/{i:03d}", lambda: _cli_hash(path, out))
        finally:
            sweep.close()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", help="file to write (default: standard output)")
    args = parser.parse_args(argv)
    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        with np.errstate(all="ignore"):
            rows = operation_hashes(args.seed)
    header = {"seed": args.seed, "python": platform.python_version(), "numpy": np.__version__}
    lines = [json.dumps(header)[:-1] + ', "operations": [']
    lines += [
        json.dumps({"op": name, "transitions": count, "sha256": digest})
        + ("," if i < len(rows) - 1 else "")
        for i, (name, count, digest) in enumerate(rows)
    ]
    lines.append("]}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
