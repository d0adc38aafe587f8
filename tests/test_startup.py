"""What a CLI call loads before its first operation.

Every command runs ``import crkit, crkit.cli`` in a fresh interpreter.
That import leaves out the dataclass machinery, the expression parser and
the corpus builders, which no command runs; the package still resolves
their public names on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
import crkit, crkit.cli
loaded = sorted(m for m in ("dataclasses", "crkit.parser", "crkit.corpus") if m in sys.modules)
unlisted = sorted(set(crkit.__all__) - set(dir(crkit)))
resolved = [
    crkit.parse_expr.__module__,
    crkit.normalize_declaration.__module__,
    crkit.TruncationWarning.__module__,
    crkit.corpus.__name__,
]
namespace = {}
exec("from crkit import *", namespace)
unbound = [name for name in crkit.__all__ if name not in namespace]
try:
    crkit.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({"loaded": loaded, "unlisted": unlisted, "resolved": resolved,
                  "unbound": unbound, "missing": missing,
                  "default_order": crkit.corpus.DEFAULT_ORDER}))
"""


def fresh_interpreter(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    return json.loads(done.stdout)


def test_cli_import_loads_no_dataclasses_parser_or_corpus():
    report = fresh_interpreter(PROBE)
    assert report["loaded"] == []
    assert report["unlisted"] == []
    assert report["resolved"] == ["crkit.parser", "crkit.parser", "crkit.parser", "crkit.corpus"]
    assert report["unbound"] == []
    assert report["missing"] == "module 'crkit' has no attribute 'no_such_name'"
    assert report["default_order"] == 8


def test_expression_parser_loads_no_dataclasses():
    report = fresh_interpreter(
        "import json, sys\n"
        "import crkit.parser\n"
        "print(json.dumps({'dataclasses': 'dataclasses' in sys.modules}))\n"
    )
    assert report == {"dataclasses": False}
