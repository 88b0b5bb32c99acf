"""Knowledge-base core: parsing, splits, corruptions, views."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selprover import kb
from selprover.config import ConfigError
from selprover.pretrain import _sample_negative

from oracles import constant_names, known_triples, serialize_triples


def build_kb(triples, rules=()):
    text = "\n".join("\t".join(t) for t in triples)
    facts, vocab, _ = kb.parse_triples(text)
    return kb.KnowledgeBase(vocab, facts, rules)


class TestParseTriples:
    def test_single_line(self):
        facts, vocab, skipped = kb.parse_triples("anakin\tfatherOf\tluke")
        assert len(facts) == 1 and skipped == 0
        f = facts[0]
        assert vocab.predicate_name(f.pred) == "fatherOf"
        assert vocab.constant_name(f.args[0]) == "anakin"
        assert vocab.constant_name(f.args[1]) == "luke"

    def test_empty_input(self):
        facts, vocab, skipped = kb.parse_triples("")
        assert facts == [] and skipped == 0

    def test_blank_lines_ignored(self):
        facts, _, _ = kb.parse_triples("\n\na\tp\tb\n\n")
        assert len(facts) == 1

    def test_malformed_line_carries_number(self):
        with pytest.raises(kb.ParseError) as e:
            kb.parse_triples("a\tp\tb\nx y z w\n")
        assert e.value.line_no == 2
        assert "line 2" in str(e.value)

    def test_unary_lines_skipped_with_count(self):
        facts, _, skipped = kb.parse_triples("a\tp\tb\nsomeprop\tfrance\nc\tq\td")
        assert len(facts) == 2 and skipped == 1

    def test_duplicates_keep_first(self):
        facts, _, _ = kb.parse_triples("a\tp\tb\na\tp\tb\n")
        assert len(facts) == 1

    def test_vocab_growth_first_appearance_order(self):
        _, vocab, _ = kb.parse_triples("b\tq\ta\na\tp\tc")
        assert constant_names(vocab) == ["b", "a", "c"]
        assert vocab.n_predicates == 2
        assert [vocab.predicate_name(i) for i in range(2)] == ["q", "p"]

    def test_round_trip(self):
        text = "a\tp\tb\nb\tq\tc\nc\tp\ta\n"
        facts, vocab, _ = kb.parse_triples(text)
        again, vocab2, _ = kb.parse_triples(serialize_triples(facts, vocab))
        assert [f.as_triple() for f in facts] == [f.as_triple() for f in again]
        assert constant_names(vocab) == constant_names(vocab2)
        assert vocab.n_predicates == vocab2.n_predicates
        assert ([vocab.predicate_name(i) for i in range(vocab.n_predicates)]
                == [vocab2.predicate_name(i)
                    for i in range(vocab2.n_predicates)])


names = st.text(alphabet="abcdefgh", min_size=1, max_size=3)
triples = st.lists(st.tuples(names, names, names), min_size=1, max_size=30)


class TestParseProperties:
    @settings(max_examples=200, deadline=None)
    @given(triples)
    def test_round_trip_any(self, ts):
        """Serialize-then-reparse preserves the resolved fact list exactly."""
        facts, vocab, _ = kb.parse_triples("\n".join("\t".join(t) for t in ts))
        body = serialize_triples(facts, vocab)
        again, vocab2, _ = kb.parse_triples(body)
        a = [(vocab.predicate_name(f.pred), vocab.constant_name(f.args[0]),
              vocab.constant_name(f.args[1])) for f in facts]
        b = [(vocab2.predicate_name(f.pred), vocab2.constant_name(f.args[0]),
              vocab2.constant_name(f.args[1])) for f in again]
        assert a == b


class TestSplitDataset:
    def test_floor_sizes_remainder_to_test(self):
        # 2565 facts at (0.3, 0.2, 0.5) -> floor sizes with remainder to test
        vocab = kb.Vocabulary()
        p = vocab.intern_predicate("p")
        n_const = 60
        facts = []
        k = 0
        for i in range(n_const):
            for j in range(n_const):
                if k < 2565:
                    facts.append(kb.Atom(p, (vocab.intern_constant(f"c{i}"),
                                             vocab.intern_constant(f"c{j}"))))
                    k += 1
        assert len(facts) == 2565
        train, valid, test = kb.split_dataset(facts, (0.3, 0.2, 0.5), seed=7)
        assert (len(train), len(valid), len(test)) == (769, 513, 1283)

    def test_determinism(self):
        facts, vocab, _ = kb.parse_triples(
            "\n".join(f"a{i}\tp\tb{i}" for i in range(10)))
        s1 = kb.split_dataset(facts, (0.3, 0.2, 0.5), seed=3)
        s2 = kb.split_dataset(facts, (0.3, 0.2, 0.5), seed=3)
        assert [[f.as_triple() for f in part] for part in s1] == \
            [[f.as_triple() for f in part] for part in s2]

    def test_bad_ratios_rejected(self):
        facts, _, _ = kb.parse_triples("a\tp\tb")
        with pytest.raises(ConfigError):
            kb.split_dataset(facts, (0.5, 0.5, 0.1), seed=0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            kb.split_dataset([], (0.3, 0.2, 0.5), seed=0)

    def test_predicate_coverage_redraw(self):
        # two predicates, plenty of facts each: train must cover both
        lines = [f"a{i}\tp\tb{i}" for i in range(20)]
        lines += [f"a{i}\tq\tb{i}" for i in range(20)]
        facts, _, _ = kb.parse_triples("\n".join(lines))
        for seed in range(20):
            train, valid, test = kb.split_dataset(facts, (0.3, 0.2, 0.5),
                                                  seed=seed)
            train_preds = {f.pred for f in train}
            rest_preds = {f.pred for f in valid} | {f.pred for f in test}
            assert rest_preds <= train_preds

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 2**31 - 1))
    def test_partition_law(self, n, seed):
        """Union equals the source multiset-free fact set; pieces are disjoint."""
        vocab = kb.Vocabulary()
        p = vocab.intern_predicate("p")
        facts = [kb.Atom(p, (vocab.intern_constant(f"x{i}"),
                             vocab.intern_constant(f"y{i}"))) for i in range(n)]
        train, valid, test = kb.split_dataset(facts, (0.3, 0.2, 0.5), seed=seed)
        tr = {f.as_triple() for f in train}
        va = {f.as_triple() for f in valid}
        te = {f.as_triple() for f in test}
        assert len(train) + len(valid) + len(test) == n
        assert tr | va | te == {f.as_triple() for f in facts}
        assert not (tr & va) and not (tr & te) and not (va & te)
        assert len(train) == int(0.3 * n)
        assert len(valid) == int(0.2 * n)


class TestCorruptions:
    """``pretrain._sample_negative``, the one corruption sampler, which the
    embedding pretrainer and the prover's training loss both draw from."""

    def test_both_argument_sweeps_filtered(self):
        # constants {a,b,c}, only fact r(a,b): both argument sweeps, filtered
        base = build_kb([("a", "r", "b"), ("c", "dummy", "c")])
        fact = base.facts[0]
        rng = np.random.default_rng(0)
        out = {_sample_negative(rng, fact.as_triple(), base.vocab.n_constants,
                                known_triples(base)) for _ in range(200)}
        vocab = base.vocab
        got = {(vocab.predicate_name(p), vocab.constant_name(s),
                vocab.constant_name(o)) for p, s, o in out}
        assert got == {("r", "b", "b"), ("r", "c", "b"),
                       ("r", "a", "a"), ("r", "a", "c")}

    def test_fully_filtered(self):
        triples = [("a", "r", "b"), ("b", "r", "b"), ("c", "r", "b"),
                   ("a", "r", "a"), ("a", "r", "c")]
        base = build_kb(triples)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert _sample_negative(rng, base.facts[0].as_triple(),
                                    base.vocab.n_constants,
                                    known_triples(base)) is None

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 40), st.integers(0, 2**31 - 1))
    def test_soundness(self, n_const, n_facts, seed):
        """None, or an unknown triple one argument away from the fact."""
        rng = np.random.default_rng(seed)
        vocab = kb.Vocabulary()
        p = vocab.intern_predicate("r")
        for i in range(n_const):
            vocab.intern_constant(f"c{i}")
        facts = []
        for _ in range(n_facts):
            facts.append(kb.Atom(p, (int(rng.integers(n_const)),
                                     int(rng.integers(n_const)))))
        base = kb.KnowledgeBase(vocab, facts)
        fact = base.facts[int(rng.integers(base.n_facts))].as_triple()
        known = known_triples(base)
        got = _sample_negative(rng, fact, n_const, known)
        if got is None:
            return
        assert got not in known
        assert got[0] == fact[0]
        assert (got[1] != fact[1]) + (got[2] != fact[2]) == 1


class TestKnowledgeBase:
    def test_duplicate_facts_deduped(self):
        base = build_kb([("a", "p", "b")])
        dup = kb.KnowledgeBase(base.vocab, [base.facts[0], base.facts[0]])
        assert dup.n_facts == 1

    def test_rules_indexed_by_head(self):
        base = build_kb([("a", "p", "b")])
        p = base.vocab.intern_predicate("p")
        q = base.vocab.intern_predicate("q")
        rule = kb.Rule(kb.SHAPE_IMPLIES, q, p)
        kb2 = kb.KnowledgeBase(base.vocab, base.facts, [rule])
        assert kb2.item_head_pred(kb2.n_facts) == q

    def test_rejects_non_template_rules(self):
        base = build_kb([("a", "p", "b")])
        vocab = base.vocab
        p = vocab.intern_predicate("p")
        q = vocab.intern_predicate("q")
        bad = [
            kb.Rule("swap", p, q),               # no such template
            kb.Rule(kb.SHAPE_IMPLIES, p, q, q),  # body2 on a one-body shape
            kb.Rule(kb.SHAPE_INVERSE, p, q, p),
            kb.Rule(kb.SHAPE_CHAIN, p, q),       # a chain without body2
            kb.Rule(kb.SHAPE_IMPLIES, -1, q),    # predicate ids are >= 0
            kb.Rule(kb.SHAPE_CHAIN, p, -1, q),
        ]
        for rule in bad:
            with pytest.raises(ValueError, match="template") as err:
                kb.KnowledgeBase(vocab, base.facts,
                                 [kb.Rule(kb.SHAPE_CHAIN, q, p, p), rule])
            assert f"rule 1 is not template-shaped: {rule}" in str(err.value)

    def test_view_exclusion_lookup(self):
        base = build_kb([("a", "p", "b"), ("c", "p", "d"), ("e", "q", "f")])
        view = base.full_view()
        assert view.local_fact_index(1) == 1
        sub = kb.KBView(base, np.array([2]), ())  # the q facts
        assert sub.local_fact_index(2) == 0
        assert sub.local_fact_index(0) == -1

    def test_variables_rejected_in_facts(self):
        vocab = kb.Vocabulary()
        p = vocab.intern_predicate("p")
        vocab.intern_constant("a")
        with pytest.raises(ValueError):
            kb.KnowledgeBase(vocab, [kb.Atom(p, (-1, 0))])
