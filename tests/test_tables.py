from mtgender.metrics import SetBalance, TgbiReport, WinomtReport
from mtgender.tables import fmt_pct, fmt_score, format_tgbi_table, format_winomt_table


def make_report(**overrides):
    base = dict(acc=50.0, delta_g=200 / 3, delta_s=0.0, n=0.0,
                f1_male=200 / 3, f1_female=0.0, macro_f1_pro=100 / 3,
                macro_f1_anti=100 / 3, total=400, excluded_unlisted=0)
    base.update(overrides)
    return WinomtReport(**base)


def test_percentages_round_to_one_decimal():
    assert fmt_pct(200 / 3) == "66.7"
    assert fmt_pct(0.0) == "0.0"
    assert fmt_pct(48.85) == "48.9"


def test_scores_round_to_three_decimals():
    assert fmt_score(0.7417142857) == "0.742"
    assert fmt_score(1.0) == "1.000"


def test_undefined_delta_s_renders_na():
    table = format_winomt_table([("solo", make_report(delta_s=None, macro_f1_anti=None))])
    row = table.splitlines()[1]
    assert "n/a" in row


def test_negative_gaps_keep_sign():
    table = format_winomt_table([("rev", make_report(delta_g=-66.7, delta_s=-3.8))])
    assert "-66.7" in table and "-3.8" in table


def test_tgbi_table_bottom_row():
    # a published per-set column should print its average as 0.742
    balances = {"S1": 0.787, "S2": 0.620, "S3": 0.623, "S4": 0.569,
                "S5": 0.819, "S6": 0.926, "S7": 0.848}
    report = TgbiReport(
        per_set={k: SetBalance(0.0, 0.0, 1.0, ps, 10)
                 for k, ps in balances.items()},
        tgbi=sum(balances.values()) / len(balances),
    )
    lines = format_tgbi_table([("it", report)]).splitlines()
    assert lines[1].split() == ["S1", "0.787"]
    assert lines[-1].split() == ["TGBI", "0.742"]
