"""The tolerance policy is stated once, in rotform.linalg.ToleranceConfig:
no threshold in the package may carry its own floor, guard or constant.
The skew analyses take their rates from K itself, never from the Gram
matrix K^T K, whose entries square the scale and under- or overflow."""

import re
from pathlib import Path

import rotform

FORBIDDEN = re.compile(
    r"max\(1\.0,|1e-300|ZERO_FORM_REL|_NORMALITY_REL|skew_tol|cluster_rel|_CLUSTER_LADDER|K\.T @ K|Ksub"
)


def test_no_threshold_outside_the_policy():
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(Path(rotform.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if FORBIDDEN.search(line)
    ]
    assert hits == []
