"""Unit tests for the Parameter/Module system."""

import numpy as np
import pytest

from repro.tensor.module import Module, ModuleList, Parameter


class Leaf(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones((2, 3), dtype=np.float32))
        self.bias = Parameter(np.zeros(3, dtype=np.float32))

    def forward(self, x):
        return x @ self.weight.data + self.bias.data


class Tree(Module):
    def __init__(self):
        super().__init__()
        self.first = Leaf()
        self.second = Leaf()
        self.scale = Parameter(np.array([2.0], dtype=np.float32))


class TestParameter:
    def test_shape_dtype_nbytes(self):
        p = Parameter(np.zeros((4, 5), dtype=np.float32))
        assert p.shape == (4, 5)
        assert p.dtype == np.float32
        assert p.nbytes == 4 * 5 * 4
        assert p.numel() == 20

    def test_repr_mentions_shape(self):
        assert "(2, 2)" in repr(Parameter(np.zeros((2, 2))))


class TestModuleTraversal:
    def test_named_parameters_are_dotted_and_ordered(self):
        tree = Tree()
        names = [name for name, _ in tree.named_parameters()]
        assert names == [
            "scale",
            "first.weight",
            "first.bias",
            "second.weight",
            "second.bias",
        ]

    def test_parameters_yields_all(self):
        assert len(list(Tree().parameters())) == 5

    def test_named_modules(self):
        names = [name for name, _ in Tree().named_modules()]
        assert names == ["", "first", "second"]

    def test_children(self):
        assert len(list(Tree().children())) == 2

    def test_num_parameters_and_bytes(self):
        tree = Tree()
        assert tree.num_parameters() == 2 * (6 + 3) + 1
        assert tree.num_bytes() == tree.num_parameters() * 4

    def test_delattr_unregisters(self):
        leaf = Leaf()
        del leaf.bias
        assert [name for name, _ in leaf.named_parameters()] == ["weight"]


class TestCallProtocol:
    def test_forward_required(self):
        with pytest.raises(NotImplementedError):
            Module()(1)

    def test_call_dispatches_to_forward(self, rng):
        leaf = Leaf()
        x = rng.normal(size=(1, 2)).astype(np.float32)
        np.testing.assert_array_equal(leaf(x), leaf.forward(x))


class TestModuleList:
    def test_len_iter_getitem(self):
        items = ModuleList([Leaf(), Leaf(), Leaf()])
        assert len(items) == 3
        assert items[1] is list(items)[1]

    def test_parameters_traverse_children(self):
        items = ModuleList([Leaf(), Leaf()])
        assert len(list(items.parameters())) == 4

    def test_append(self):
        items = ModuleList()
        items.append(Leaf())
        assert len(items) == 1
        assert any(name.startswith("0.") for name, _ in items.named_parameters())
