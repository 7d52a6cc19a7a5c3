"""Every golden report (``tests/golden/``) is printed again as recorded:
byte for byte on the numpy, BLAS and CPU of its header, else to 1e-12 x
max(1, |v|).  ``golden_reports.py --update`` rewrites them."""

import golden_reports


def test_reports_match_the_golden_files():
    mode, differ = golden_reports.compare()
    print(f"golden reports compared by {mode}")
    assert not differ, f"reports differ from tests/golden/ ({mode}): {differ}"
