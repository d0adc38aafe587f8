"""Write ``reference.json``: the digest of every CLI operation's output and
of every generated input document.

    python3 bench/make_reference.py

Run it only on the commit whose outputs are the reference (the commit that
introduced the benchmark). A change that alters output bytes on purpose
must say so, and regenerate the file in its own commit.
"""

from __future__ import annotations

import json
import sys

import harness
import workloads

CLI_WORKLOADS = ("corpus_order8", "deep_maps", "dense_germs")


def main() -> int:
    harness.require_sources()
    crkit = harness.import_crkit()
    reference = {"inputs": {}, "outputs": {}}
    for name in CLI_WORKLOADS:
        with harness.workdir_for(f"reference-{name}") as workdir:
            # CLI workloads run the same operations for every seed
            ops = workloads.build(name, 0, workdir, crkit)
            checker = harness.Checker(name, None)
            outcomes = harness.run_pass(ops, crkit, checker)
            wrong = [f"{o.op_id}: {o.wrong}" for o in outcomes if o.wrong]
            if wrong:
                print("\n".join(wrong), file=sys.stderr)
                return 1
            reference["outputs"][name] = {o.op_id: o.digest for o in sorted(outcomes, key=lambda o: o.op_id)}
            reference["inputs"][name] = harness.input_digests(workdir)
            failed = sorted(o.op_id for o in outcomes if o.failed)
            print(f"{name}: {len(outcomes)} operations, {len(failed)} failed")
            for op_id in failed:
                print(f"  failed: {op_id}")
    with open(harness.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
