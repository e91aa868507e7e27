"""Check that two sparsify reports are laid out as json.dumps writes them and differ only in timings_ms.

Usage: python .github/check_reports.py REPORT_A REPORT_B
"""

import json
import sys

texts = [open(path, encoding="utf-8").read() for path in sys.argv[1:]]
for text in texts:
    if text != json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n":
        sys.exit("report text is not json.dumps(doc, indent=2, sort_keys=True) and a newline")
a, b = map(json.loads, texts)
for report in (a, b):
    report.pop("timings_ms")
sys.exit(0 if a == b else "reports differ once timings_ms is dropped")
