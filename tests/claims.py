"""The claims ledger: each function here regenerates one table that the
roadmap or README quotes and returns its rows, so a reader can rerun a claim
rather than trust its prose. tests/test_claims.py pins every cell.

Print a table as markdown with ``python tests/claims.py <name>`` (with the
package importable, e.g. ``PYTHONPATH=src``); the names are TABLES' keys.
"""

import sys

from pyrokin.kinetics import METHODS, run_analysis
from pyrokin.synthkin import simulate, suite_models

# The paper's names: DS, SCG, and Blends 1-3 of 75/50/25% DS with SCG.
BLEND_SAMPLES = ("three-component-ds", "three-component-scg",
                 "blend-0.75", "blend-0.5", "blend-0.25")
BLEND_BETAS = (5.0, 10.0, 15.0, 20.0)  # K/min
ORACLE_DT = 0.5  # K


def blend_ea():
    """Mean Ea (kJ/mol) over the default conversion grid, per method, of
    each DS/SCG sample in BLEND_SAMPLES order: ``run_analysis`` with its
    defaults on the exact oracle curves at BLEND_BETAS and ORACLE_DT.

    The oracle's blends are additive, with no interaction between the
    parents, so an ordering of these means is not evidence of synergy.
    Rows are ``(sample, friedman, kas, fwo)``, the methods in METHODS order.
    """
    models = {name: (model, spec) for name, model, spec in suite_models()}
    rows = []
    for name in BLEND_SAMPLES:
        model, spec = models[name]
        table = run_analysis([simulate(model, beta, ORACLE_DT, spec=spec)
                              for beta in BLEND_BETAS])
        averages = table.ea_averages()
        rows.append((name, *(averages[method] / 1e3 for method in METHODS)))
    return rows


# name: (column headers, row function)
TABLES = {
    "blend_ea": (("sample", "Friedman", "KAS", "FWO"), blend_ea),
}


def markdown(name):
    """Table ``name`` in markdown, numbers to the 0.1 the ledger pins."""
    header, rows = TABLES[name]
    lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
    for row in rows():
        lines.append("| " + " | ".join(v if isinstance(v, str) else f"{v:.1f}"
                                       for v in row) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in TABLES:
        sys.exit(f"usage: python tests/claims.py {{{','.join(TABLES)}}}")
    print(markdown(sys.argv[1]))
