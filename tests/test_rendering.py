"""Rendering contract: the CLI's CSV and JSON text for hand-built results.

The library calls are replaced by fixed objects, so these literals pin the
serializer alone and no numeric bits of the evaluator.
"""

import json

import numpy as np
import pytest

from hardyz import cli
from hardyz.chain import ChainValue
from hardyz.zerolab import (CountReport, GapRecord, InterlaceReport,
                            MirrorReport, ZeroTable)

TABLE = ZeroTable("zeta", 1, 10.0, 20.0, (12.5, 17.123456789012345), (1.25e-12, 0.0),
                  (3.5e-09, 0.0), (15.0,))
INTERLACE = InterlaceReport("chi4", 0, 30.0, 40.0,
                            (GapRecord(30.5, 33.25, (31.0,), 1), GapRecord(33.25, 36.0, (), 0)), 1)
COUNT = CountReport("zeta", 50.0, 0, 10, 8.123456789012345, 0.875, 1.0625)
MIRROR = MirrorReport("chi4", 2, 100.0, 10.0, -1.5, 1.25, 0.5, 0.0, True)
CHAIN = ChainValue(0.3 + 20j, 2, 1.5 - 2.25j, -0.5 - 1e-20j, None, 0.1 + 0.2j, 1e-11)

COMMON = ["--datum", "zeta"]

CASES = [
    (["zeros", *COMMON, "--t0", "10", "--t1", "20"], """\
k,t,residual,bracket_width
1,12.5,1.25e-12,3.5e-09
1,17.1234567890123,0,0
"""),
    (["zeros", *COMMON, "--t0", "10", "--t1", "20", "--format", "json"], """\
{
  "name": "zeta",
  "k": 1,
  "t0": 10,
  "t1": 20,
  "gammas": [12.5, 17.1234567890123],
  "residuals": [1.25e-12, 0],
  "bracket_widths": [3.5e-09, 0],
  "advisory": [15]
}
"""),
    (["interlace", *COMMON, "--t0", "30", "--t1", "40"], """\
{
  "name": "chi4",
  "k": 0,
  "t0": 30,
  "t1": 40,
  "gaps": [
    {
      "left": 30.5,
      "right": 33.25,
      "inner": [31],
      "count": 1
    },
    {
      "left": 33.25,
      "right": 36,
      "inner": [],
      "count": 0
    }
  ],
  "violations": 1
}
"""),
    (["count", *COMMON, "--T", "50"], """\
{
  "name": "zeta",
  "T": 50,
  "k": 0,
  "n_line": 10,
  "theta_term": 8.12345678901234,
  "s_measured": 0.875,
  "residual": 1.0625
}
"""),
    (["mirror", *COMMON, "--t", "100", "--window", "10"], """\
{
  "name": "chi4",
  "k": 2,
  "t": 100,
  "window": 10,
  "lhs": -1.5,
  "truncated_sum": 1.25,
  "tail_bound": 0.5,
  "c_fit": 0,
  "agree": true
}
"""),
    (["eval", *COMMON, "--s", "0.3,20"], """\
{
  "s": "0.3+20j",
  "k": 2,
  "coeff": "1.5-2.25j",
  "value": "-0.5-1e-20j",
  "lead_ratio": null,
  "tail_ratio": "0.1+0.2j",
  "est_error": 1e-11
}
"""),
    (["sample", *COMMON, "--t0", "14", "--t1", "15", "--step", "0.5"], """\
t,z
14,0.25
14.5,-0.001
15,0.333333333333333
"""),
    (["sample", *COMMON, "--t0", "14", "--t1", "15", "--step", "0.5", "--format", "json"], """\
[
  {
    "t": 14,
    "z": 0.25
  },
  {
    "t": 14.5,
    "z": -0.001
  },
  {
    "t": 15,
    "z": 0.333333333333333
  }
]
"""),
]


@pytest.fixture
def fixed_results(monkeypatch):
    for name, value in (("scan_zeros", TABLE), ("interlace_audit", INTERLACE),
                        ("count_compare", COUNT), ("mirror_sum_check", MIRROR),
                        ("chain_value", CHAIN)):
        monkeypatch.setattr(cli, name, lambda *args, _value=value, **kw: _value)
    monkeypatch.setattr(cli, "z_grid", lambda datum, ts, k: (
        np.array([0.25, -1e-3, 1.0 / 3.0]), np.zeros(3)))


@pytest.mark.parametrize("argv,text", CASES, ids=[" ".join(argv[:1] + argv[-2:]) for argv, _ in CASES])
def test_cli_text_of_fixed_results(fixed_results, capsys, argv, text):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == text


def test_fingerprint_text_of_fixed_reports():
    # the benchmark digests json.dumps of to_jsonable()
    expected = {
        TABLE: '{"name": "zeta", "k": 1, "t0": 10.0, "t1": 20.0, "gammas": [12.5, 17.123456789012344], '
               '"residuals": [1.25e-12, 0.0], "bracket_widths": [3.5e-09, 0.0], "advisory": [15.0]}',
        INTERLACE: '{"name": "chi4", "k": 0, "t0": 30.0, "t1": 40.0, "gaps": [{"left": 30.5, '
                   '"right": 33.25, "inner": [31.0], "count": 1}, {"left": 33.25, "right": 36.0, '
                   '"inner": [], "count": 0}], "violations": 1}',
        COUNT: '{"name": "zeta", "T": 50.0, "k": 0, "n_line": 10, "theta_term": 8.123456789012344, '
               '"s_measured": 0.875, "residual": 1.0625}',
        MIRROR: '{"name": "chi4", "k": 2, "t": 100.0, "window": 10.0, "lhs": -1.5, '
                '"truncated_sum": 1.25, "tail_bound": 0.5, "c_fit": 0.0, "agree": true}',
    }
    for report, text in expected.items():
        assert json.dumps(report.to_jsonable()) == text
