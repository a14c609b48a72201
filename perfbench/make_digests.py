"""Write table_digests.json: SHA-256 of every ``tables`` output that
cli_mix can ask for.

    python3 perfbench/make_digests.py

Run from the root of a checkout. The committed file was made at the
commit that introduced this benchmark; cli_mix counts any later output
that differs from it as a failure, so regenerate it only for a
deliberate change of the table output.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import TABLE_FAMILIES, TABLE_MAX

HERE = Path(__file__).resolve().parent


def main() -> int:
    env = {k: v for k, v in os.environ.items() if k != "THREADS"}
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    digests = {}
    for family in TABLE_FAMILIES:
        for top in TABLE_MAX:
            for fmt in ("csv", "json"):
                out = subprocess.run(
                    [sys.executable, "-m", "gammazeta", "tables", family, "--max", str(top),
                     "--format", fmt], env=env, capture_output=True, check=True).stdout
                digests[f"{family}/{top}/{fmt}"] = hashlib.sha256(out).hexdigest()
    (HERE / "table_digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
