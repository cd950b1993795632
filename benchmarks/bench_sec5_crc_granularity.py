"""E-CRC: §5.2 — symbol-level CRC granularity/modulation trade-off.

The paper measured six schemes (1-bit/2-bit phase offsets × 1–3 symbols
per CRC group) and picked CRC-2 per symbol (2-bit scheme, granularity 1).
This ablation re-runs the RTE experiment under each scheme and reports the
resulting mean BER — the paper's selection should be at or near the top.
"""

from _report import Report, fmt_ber
from repro.analysis import LinkConfig, ber_by_symbol_index
from repro.core.side_channel import ONE_BIT_SCHEME, TWO_BIT_SCHEME
from repro.core.symbol_crc import SymbolCrcConfig

TRIALS = 25
PAPER_CHOICE = ("2-bit", 1)


def _checksum(scheme: str, granularity: int) -> str:
    return f"CRC-{granularity * (1 if scheme == '1-bit' else 2)}"


def _run():
    results = {}
    for scheme in (ONE_BIT_SCHEME, TWO_BIT_SCHEME):
        for granularity in (1, 2, 3):
            config = SymbolCrcConfig(scheme=scheme, granularity=granularity)
            result = ber_by_symbol_index(
                "QAM64-3/4", 4090, TRIALS, use_rte=True,
                link=LinkConfig(seed=52), crc_config=config, n_workers=None,
            )
            results[(scheme.name, granularity)] = result
    return results


def test_sec5_crc_granularity(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)

    report = Report(
        "E-CRC",
        "§5.2 — CRC granularity × side-channel modulation ablation (QAM64)",
        "one symbol per group with the 2-bit scheme (a CRC-2 per symbol) "
        "wins in most cases",
    )
    rows = []
    for (scheme, granularity), result in results.items():
        rows.append([
            scheme, granularity, _checksum(scheme, granularity),
            fmt_ber(result.mean_ber), f"{result.crc_pass_rate:.2f}",
        ])
    report.table(["scheme", "symbols/group", "checksum", "mean BER", "CRC pass"], rows)
    paper_choice = results[PAPER_CHOICE].mean_ber
    best_key = min(results, key=lambda k: results[k].mean_ber)
    best = results[best_key].mean_ber
    if best_key == PAPER_CHOICE:
        note = "The paper's choice wins here too."
    else:
        note = (
            f"Deviation note: in our simulated channel, {_checksum(*best_key)} "
            f"over {best_key[1]} symbol(s) with the {best_key[0]} scheme "
            f"(CRC pass {results[best_key].crc_pass_rate:.2f}) edges out "
            f"CRC-2/symbol (CRC pass {results[PAPER_CHOICE].crc_pass_rate:.2f}); "
            "the trade-off is environment-dependent, exactly why the paper "
            "settled it by measurement."
        )
    report.line()
    report.line(
        f"best scheme here: {best_key[0]} × {best_key[1]} sym/group "
        f"({fmt_ber(best)}); paper's choice (2-bit × 1): {fmt_ber(paper_choice)}. "
        + note
    )
    report.save_and_print("sec5_crc_granularity")

    # The paper's choice stays competitive (within ~40 %) with the best
    # scheme in our environment, and beats the 1-bit × 1 variant.
    assert paper_choice <= 1.4 * best
    assert paper_choice < results[("1-bit", 1)].mean_ber
