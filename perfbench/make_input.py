"""One set-up of a benchmark run, in a fresh interpreter.

    python3 perfbench/make_input.py <k> <out.json>

Imports ``fcat.cli`` from the checkout, generates the SU(2)_k document and
writes it to ``out.json``.  Prints one JSON line with the seconds that took
(interpreter start-up excluded) and the sha256 of the written bytes.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import CheckoutError, import_fcat_cli, su2k_document  # noqa: E402


def main() -> int:
    k, out = int(sys.argv[1]), Path(sys.argv[2])
    try:
        import_fcat_cli()
        data = json.dumps(su2k_document(k)).encode()
    except CheckoutError as exc:
        print(f"make_input: {exc}", file=sys.stderr)
        return 2
    out.write_bytes(data)
    seconds = time.perf_counter() - T0
    print(json.dumps({"seconds": seconds,
                      "sha256": hashlib.sha256(data).hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
