"""Record the digests the ledger checks its outputs against.

Run from the repository root, only when a change of behaviour is
intended (a change that claims only speed must leave them alone)::

    python3 perfledger/record_reference.py --seeds 101 202

Writes ``perfledger/reference.json``: the sha256 of each paper
experiment's stdout per seed (fig3 and table1 take no seed), the
static_cold table of (benchmark, variant) -> [marks, mark bytes, tuned
trace length, baseline trace length] with its digest, and the Fig 6
result digest per seed.  Entries for seeds not named are kept.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 202])
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from run import prepare_environment

    prepare_environment(Path.cwd())
    import ledger_spans
    import ledger_workloads as lw

    path = lw.REFERENCE_FILE
    reference = json.loads(path.read_text()) if path.exists() else {}
    paper = reference.setdefault("paper_serial", {"unseeded": {}, "seeds": {}})
    fig6 = reference.setdefault("fig6", {})
    plain = ledger_spans.Recorder(HERE, timed=False)
    for seed in args.seeds:
        texts = {}
        for name, fn in lw.EXPERIMENTS:
            lw.default_cache().clear()
            texts[name], result = plain.span(name, fn, seed)
            if name == "fig6":
                fig6[str(seed)] = lw.fig6_digest(result)
        paper["unseeded"] = {name: lw.digest(texts[name]) for name in lw.UNSEEDED}
        paper["seeds"][str(seed)] = {
            name: lw.digest(text) for name, text in texts.items()
            if name not in lw.UNSEEDED
        }
        print(f"seed {seed}: recorded", file=sys.stderr)
    table, errors, _best = lw.static_table(lw.PipelineCache())
    if errors:
        raise SystemExit(f"static builds failed: {errors}")
    reference["static_cold"] = {"digest": lw.digest(table), "table": table}
    path.write_text(dump(reference))
    return 0


def dump(reference: dict) -> str:
    """JSON text with each table row of numbers on one line."""
    text = json.dumps(reference, indent=1, sort_keys=True)
    return re.sub(
        r"\[\s+([-\d.,\s]+?)\s+\]",
        lambda m: "[" + ", ".join(part.strip() for part in m.group(1).split(",")) + "]",
        text,
    ) + "\n"


if __name__ == "__main__":
    sys.exit(main())
