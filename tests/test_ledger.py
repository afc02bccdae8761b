import json
import math

import pytest

from fdstab.ledger import ConstantLedger
from fdstab.logscale import LogReal


def test_put_and_lookup():
    led = ConstantLedger()
    led.put("plain", 2.0, "two")
    led.put("deep", LogReal.exp_of(LogReal.from_ln(1e120)), "huge")
    assert "plain" in led and "deep" in led
    assert math.isclose(led["plain"].to_float(), 2.0, rel_tol=1e-14)
    with pytest.raises(KeyError):
        led.put("plain", 3.0, "dup")


def test_json_round_shape():
    led = ConstantLedger()
    led.put("a", 3.0, "three")
    led.put("b", LogReal.from_ln(1e120), "big")
    payload = json.loads(led.to_json())
    assert [e["name"] for e in payload] == ["a", "b"]
    assert math.isclose(payload[0]["value"], 3.0, rel_tol=1e-14)
    assert payload[1]["value"] is None
    assert payload[1]["log_value"] == 1e120
    assert payload[1]["log_scale"]["lndepth"] == 0


def test_close_to_reports_names():
    l1, l2 = ConstantLedger(), ConstantLedger()
    l1.put("x", 1.5, "")
    l2.put("x", 1.5 * (1.0 + 1e-6), "")
    assert l1.close_to(l2, rel=1e-3) == []
    assert l1.close_to(l2, rel=1e-9) == ["x"]
    l2.put("extra", 1.0, "")
    assert "extra" in l1.close_to(l2, rel=1e-3)


def test_from_json_canonicalizes_band_encodings():
    # ln|ln x| = 701 stored one level too deep, as older files may hold it
    text = json.dumps([{"name": "x", "log_value": None, "value": None,
                        "formula": "", "log_scale":
                        {"lnsign": 1, "lndepth": 1, "lnmag": 701.0}}])
    led = ConstantLedger.from_json(text)
    assert led["x"] == LogReal.from_ln(math.exp(701.0))
