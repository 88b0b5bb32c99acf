"""Dataset resolution: split directories, single files, synthetic graphs."""

import pytest

from selprover import datasets
from selprover.datasets import Dataset, DatasetError, load_dataset, synthesize_family

from oracles import serialize_triples


def triples(facts, vocab):
    return [(vocab.constant_name(f.args[0]), vocab.predicate_name(f.pred),
             vocab.constant_name(f.args[1])) for f in facts]


def write(path, rows):
    path.write_text("".join(f"{s}\t{p}\t{o}\n" for s, p, o in rows))


class TestPreSplitDirectory:
    def test_loads_parts_with_shared_vocab(self, tmp_path):
        d = tmp_path / "toy"
        d.mkdir()
        write(d / "train.txt", [("a", "p", "b"), ("b", "p", "c")])
        write(d / "valid.txt", [("c", "q", "a")])
        write(d / "test.txt", [("a", "q", "c")])
        ds = load_dataset("toy", str(tmp_path), seed=3)
        assert ds.name == "toy"
        assert triples(ds.train, ds.vocab) == [("a", "p", "b"), ("b", "p", "c")]
        assert triples(ds.valid, ds.vocab) == [("c", "q", "a")]
        assert triples(ds.test, ds.vocab) == [("a", "q", "c")]
        # "a" interned once, reused by every part
        assert ds.train[0].args[0] == ds.valid[0].args[1] == ds.test[0].args[0]

    def test_tsv_extension_accepted(self, tmp_path):
        d = tmp_path / "toy"
        d.mkdir()
        for part in ("train", "valid", "test"):
            write(d / f"{part}.tsv", [("a", "p", part)])
        ds = load_dataset("toy", str(tmp_path), seed=0)
        assert len(ds.all_facts) == 3

    def test_cross_file_duplicates_dropped(self, tmp_path):
        d = tmp_path / "toy"
        d.mkdir()
        write(d / "train.txt", [("a", "p", "b")])
        write(d / "valid.txt", [("a", "p", "b"), ("b", "p", "c")])
        write(d / "test.txt", [("a", "p", "b"), ("c", "p", "a")])
        ds = load_dataset("toy", str(tmp_path), seed=0)
        assert triples(ds.valid, ds.vocab) == [("b", "p", "c")]
        assert triples(ds.test, ds.vocab) == [("c", "p", "a")]

    def test_incomplete_parts_without_single_file_error(self, tmp_path):
        d = tmp_path / "toy"
        d.mkdir()
        write(d / "train.txt", [("a", "p", "b")])
        write(d / "valid.txt", [("b", "p", "c")])
        with pytest.raises(DatasetError, match="train/valid/test"):
            load_dataset("toy", str(tmp_path), seed=0)

    def test_two_loose_files_ambiguous(self, tmp_path):
        d = tmp_path / "toy"
        d.mkdir()
        write(d / "facts.txt", [("a", "p", "b")])
        write(d / "more.txt", [("b", "p", "c")])
        with pytest.raises(DatasetError, match="exactly one"):
            load_dataset("toy", str(tmp_path), seed=0)


class TestSingleFile:
    def rows(self):
        return [(f"c{i}", "p" if i % 2 else "q", f"c{i + 1}") for i in range(20)]

    def test_bare_file_split_by_ratio(self, tmp_path):
        write(tmp_path / "loose.txt", self.rows())
        ds = load_dataset("loose", str(tmp_path), seed=5)
        assert (len(ds.train), len(ds.valid), len(ds.test)) == (6, 4, 10)
        got = sorted(triples(ds.all_facts, ds.vocab))
        assert got == sorted(self.rows())

    def test_directory_with_one_file(self, tmp_path):
        d = tmp_path / "inner"
        d.mkdir()
        write(d / "everything.tsv", self.rows())
        ds = load_dataset("inner", str(tmp_path), seed=5)
        assert len(ds.all_facts) == 20

    def test_same_seed_same_split(self, tmp_path):
        write(tmp_path / "loose.txt", self.rows())
        a = load_dataset("loose", str(tmp_path), seed=9)
        b = load_dataset("loose", str(tmp_path), seed=9)
        assert triples(a.train, a.vocab) == triples(b.train, b.vocab)
        assert triples(a.test, a.vocab) == triples(b.test, b.vocab)

    def test_custom_ratios(self, tmp_path):
        write(tmp_path / "loose.txt", self.rows())
        ds = load_dataset("loose", str(tmp_path), seed=1, ratios=(0.5, 0.25, 0.25))
        assert (len(ds.train), len(ds.valid), len(ds.test)) == (10, 5, 5)

    def test_empty_file_rejected(self, tmp_path):
        (tmp_path / "loose.txt").write_text("\n\n")
        with pytest.raises(DatasetError, match="no facts"):
            load_dataset("loose", str(tmp_path), seed=0)

    def test_file_shadows_synthetic_preset(self, tmp_path):
        write(tmp_path / "family.txt", self.rows())
        ds = load_dataset("family", str(tmp_path), seed=0)
        assert ds.vocab.n_predicates == 2  # the file, not the generator


class TestSynthetic:
    def test_unknown_name_lists_presets(self, tmp_path):
        with pytest.raises(DatasetError, match="family, family-large"):
            load_dataset("nope", str(tmp_path), seed=0)

    def test_family_relational_structure(self, tmp_path):
        ds = load_dataset("family", str(tmp_path), seed=4)
        by_pred = {}
        for f in ds.all_facts:
            by_pred.setdefault(ds.vocab.predicate_name(f.pred), set()).add(f.args)
        parent = by_pred["parentOf"]
        assert by_pred["childOf"] == {(b, a) for a, b in parent}
        children = {}
        for a, b in parent:
            children.setdefault(a, set()).add(b)
        grand = {(a, c) for a, b in parent for c in children.get(b, ())}
        assert by_pred["grandOf"] == grand
        assert by_pred["ancestorOf"] == parent | grand
        assert len(by_pred["friendOf"]) == ds.vocab.n_constants // 2

    def test_every_person_has_at_most_one_parent(self, tmp_path):
        ds = load_dataset("family", str(tmp_path), seed=2)
        kids = [f.args[1] for f in ds.all_facts
                if ds.vocab.predicate_name(f.pred) == "parentOf"]
        assert len(kids) == len(set(kids))

    def test_no_duplicate_facts(self, tmp_path):
        ds = load_dataset("family-large", str(tmp_path), seed=8)
        t = [f.as_triple() for f in ds.all_facts]
        assert len(t) == len(set(t))

    def test_seed_determinism_and_variation(self, tmp_path):
        a = load_dataset("family", str(tmp_path), seed=6)
        b = load_dataset("family", str(tmp_path), seed=6)
        c = load_dataset("family", str(tmp_path), seed=7)
        assert serialize_triples(a.all_facts, a.vocab) == \
            serialize_triples(b.all_facts, b.vocab)
        assert serialize_triples(a.all_facts, a.vocab) != \
            serialize_triples(c.all_facts, c.vocab)

    def test_large_preset_is_larger(self, tmp_path):
        small = load_dataset("family", str(tmp_path), seed=1)
        large = load_dataset("family-large", str(tmp_path), seed=1)
        assert len(large.all_facts) > 2 * len(small.all_facts)
        assert large.vocab.n_constants > small.vocab.n_constants

    def test_generator_rejects_degenerate_shapes(self):
        with pytest.raises(DatasetError, match="generations"):
            synthesize_family(n_families=2, generations=1, max_children=2, seed=0)
        with pytest.raises(DatasetError, match="n_families"):
            synthesize_family(n_families=0, generations=3, max_children=2, seed=0)


def test_summary_counts(tmp_path):
    ds = load_dataset("family", str(tmp_path), seed=4)
    line = ds.summary()
    assert ds.name in line
    assert str(len(ds.all_facts)) in line
    assert str(ds.vocab.n_predicates) in line


def test_dataset_carrier_shape(tmp_path):
    ds = load_dataset("family", str(tmp_path), seed=4)
    assert isinstance(ds, Dataset)
    assert ds.all_facts == [*ds.train, *ds.valid, *ds.test]
    assert set(datasets.SYNTHETIC_PRESETS) == {"family", "family-large"}
