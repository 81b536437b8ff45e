"""Byte-identity of deterministic outputs, pinned by SHA-256.

The digests were taken before the bit rows moved onto the numpy
bit-matrix kernel.  A change that alters any of these bytes changes what
a fixed seed produces: that is a behaviour change, to be stated, not a
digest to refresh.
"""

import hashlib
from fractions import Fraction

from bipcover import SweepConfig, records_to_csv, run_sweep, summarise
from bipcover.cli import main

SWEEP_DIGESTS = {
    ("uniform", "almost_cover"):
        "4bfac83a092f78d76595229e4d5e79b48e2024e959f7bee3a6fcc37a71addef0",
    ("lower3", "almost_cover"):
        "a3ca1f98ec16b7f61636b9d85a03d2e249aac3ee25798d08bfc70700efdf0406",
    ("uniform", "partition3"):
        "8c35b20e3a7a04f3e24f4eaf073df21951f413d0f10975adfb4364e98555b85c",
    ("lower3", "partition3"):
        "93edb9cc854d6811d2023fa8194cedb7e214483778421803733444f5851038b5",
}
CHECK_DIGEST = "e31e1a33c40677a1efa2e07d57d7c5500c3dc923591563e348ff748f562e12ef"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def strip_runtime(csv_text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())


def sweep_output(source: str, algorithm: str) -> str:
    config = SweepConfig(n_values=(200,), trials=3, base_seed=20250808,
                         source=source, algorithm=algorithm,
                         c_values=(Fraction(3), Fraction(5)))
    records = run_sweep(config)
    return strip_runtime(records_to_csv(records)) + "\n" + summarise(records)


def check_output(tmp_path, capsys) -> str:
    graph = tmp_path / "g.txt"
    main(["sample", "--n1", "80", "--n2", "80", "--p", "1/4", "--seed", "7",
          "--out", str(graph)])
    capsys.readouterr()
    code = main(["check", str(graph), "--p", "1/4", "--epsilon", "0.2"])
    return f"{code}\n{capsys.readouterr().out}"


def test_sweep_outputs_pinned():
    got = {key: sha256(sweep_output(*key)) for key in SWEEP_DIGESTS}
    assert got == SWEEP_DIGESTS


def test_check_output_pinned(tmp_path, capsys):
    assert sha256(check_output(tmp_path, capsys)) == CHECK_DIGEST
