"""Quickstart: consistent query answering in five minutes.

Builds a small inconsistent employee database, walks through every stage
of Hippo's pipeline (the paper's Figure 1) and contrasts the answer set
with the naive alternatives.

Run:  python examples/quickstart.py
"""

from repro import Database, HippoEngine
from repro.constraints import FunctionalDependency
from repro.repairs import all_repairs
from repro.ra import tree_to_sql


def main() -> None:
    # -- DB: an inconsistent instance -----------------------------------
    # Two sources disagree about ann's salary and about carol's department.
    db = Database()
    db.execute(
        "CREATE TABLE emp (name TEXT, dept TEXT, salary INTEGER,"
        " PRIMARY KEY (name))"
    )
    db.execute(
        "INSERT INTO emp VALUES"
        " ('ann',   'cs', 10000),"
        " ('ann',   'cs', 12000),"   # conflicting salary
        " ('bob',   'ee', 20000),"
        " ('carol', 'cs', 15000),"
        " ('carol', 'me', 15000),"   # conflicting department
        " ('dave',  'ee', 18000)"
    )

    # -- IC: the key FD both sources individually satisfied -------------
    fd = FunctionalDependency("emp", ["name"], ["dept", "salary"])
    print("Integrity constraint:", fd)

    # -- Conflict Detection -> Conflict Hypergraph ----------------------
    hippo = HippoEngine(db, [fd])
    print("\n[Conflict Detection]")
    print("  hypergraph:", hippo.hypergraph.summary())
    print("  repairs of this instance:", len(all_repairs(db, hippo.hypergraph)))

    # -- Query -> Enveloping -> Evaluation -> Prover -> Answer Set ------
    query = "SELECT * FROM emp WHERE salary >= 12000"
    print(f"\n[Query] {query}")
    tree, _ = hippo.parse(query)
    print("  envelope handed to the RDBMS:", tree_to_sql(tree))

    answers = hippo.consistent_answers(query)
    print("\n[Answer Set] tuples true in EVERY repair:")
    for row in answers:
        print("   ", row)
    print(
        "  pipeline: {candidates} candidates, {certain} certain and {refuted}"
        " refuted by the envelope, prover checked {checked}".format(
            candidates=answers.stats["candidates"],
            certain=answers.stats["certain"],
            refuted=answers.stats["refuted"],
            checked=answers.stats["prover"].candidates_checked,
        )
    )

    # -- contrast with the naive approaches -----------------------------
    print("\n[Contrast]")
    print("  raw SQL (ignores inconsistency): ", hippo.raw_answers(query).rows)
    print("  drop conflicting tuples first:   ", hippo.cleaned_answers(query).rows)
    print("  consistent answers (Hippo):      ", answers.rows)

    # Indefinite disjunctive information: ann earns 10000 or 12000 -- no
    # single value is certain, but the union query recovers the certainty
    # that ann works in cs with a salary in {10000, 12000}.
    union_query = (
        "SELECT name, dept FROM emp WHERE salary = 10000"
        " UNION SELECT name, dept FROM emp WHERE salary = 12000"
    )
    print(f"\n[Union extracts indefinite information] {union_query}")
    print("  consistent answers:", hippo.consistent_answers(union_query).rows)
    print("  after dropping conflicts:", hippo.cleaned_answers(union_query).rows)


if __name__ == "__main__":
    main()
