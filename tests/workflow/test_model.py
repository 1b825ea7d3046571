"""Tests for File, Task, and the Workflow DAG."""

import pytest

from repro.workflow import File, Task, Workflow


def make_chain():
    """a → b → c via files fab, fbc."""
    fab = File("fab", 100)
    fbc = File("fbc", 200)
    a = Task("a", flops=1e9, outputs=(fab,))
    b = Task("b", flops=2e9, inputs=(fab,), outputs=(fbc,))
    c = Task("c", flops=3e9, inputs=(fbc,))
    return Workflow("chain", [a, b, c])


# ----------------------------------------------------------------------
# File / Task validation
# ----------------------------------------------------------------------
def test_file_validation():
    with pytest.raises(ValueError):
        File("", 10)
    with pytest.raises(ValueError):
        File("f", -1)
    assert File("f", 0).size == 0  # zero-byte files are legal


def test_task_validation():
    with pytest.raises(ValueError):
        Task("", flops=1)
    with pytest.raises(ValueError):
        Task("t", flops=-1)
    with pytest.raises(ValueError):
        Task("t", flops=1, cores=0)
    with pytest.raises(ValueError):
        Task("t", flops=1, alpha=1.5)


def test_task_duplicate_files_rejected():
    f = File("f", 1)
    with pytest.raises(ValueError, match="duplicate input"):
        Task("t", flops=1, inputs=(f, f))
    with pytest.raises(ValueError, match="duplicate output"):
        Task("t", flops=1, outputs=(f, f))


def test_task_byte_totals():
    t = Task(
        "t",
        flops=1,
        inputs=(File("i1", 10), File("i2", 20)),
        outputs=(File("o", 5),),
    )
    assert t.input_bytes == 30
    assert t.output_bytes == 5


# ----------------------------------------------------------------------
# Workflow construction
# ----------------------------------------------------------------------
def test_dependencies_induced_by_files():
    wf = make_chain()
    assert [t.name for t in wf.parents("b")] == ["a"]
    assert [t.name for t in wf.children("b")] == ["c"]
    children_of_a = [t.name for t in wf.children("a")]
    assert "b" in children_of_a
    assert "c" not in children_of_a


def test_duplicate_task_names_rejected():
    t = Task("t", flops=1)
    with pytest.raises(ValueError, match="duplicate task"):
        Workflow("w", [t, Task("t", flops=2)])


def test_conflicting_file_sizes_rejected():
    a = Task("a", flops=1, outputs=(File("f", 10),))
    b = Task("b", flops=1, inputs=(File("f", 20),))
    with pytest.raises(ValueError, match="conflicting sizes"):
        Workflow("w", [a, b])


def test_two_producers_rejected():
    f = File("f", 10)
    a = Task("a", flops=1, outputs=(f,))
    b = Task("b", flops=1, outputs=(f,))
    with pytest.raises(ValueError, match="produced by both"):
        Workflow("w", [a, b])


def test_cycle_detection():
    f1, f2 = File("f1", 1), File("f2", 1)
    a = Task("a", flops=1, inputs=(f2,), outputs=(f1,))
    b = Task("b", flops=1, inputs=(f1,), outputs=(f2,))
    with pytest.raises(ValueError, match="cycle"):
        Workflow("w", [a, b])


def test_empty_workflow_allowed():
    wf = Workflow("empty", [])
    assert len(wf) == 0
    assert wf.data_footprint == 0
    assert wf.entry_tasks() == []


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def test_topological_order_is_valid():
    wf = make_chain()
    order = [t.name for t in wf.topological_order()]
    assert order.index("a") < order.index("b") < order.index("c")


def test_entry_and_exit_tasks():
    wf = make_chain()
    assert [t.name for t in wf.entry_tasks()] == ["a"]
    assert [t.name for t in wf.exit_tasks()] == ["c"]


def test_levels():
    wf = make_chain()
    levels = [[t.name for t in level] for level in wf.levels()]
    assert levels == [["a"], ["b"], ["c"]]


def test_file_classification():
    ext = File("ext", 10)
    mid = File("mid", 20)
    out = File("out", 30)
    a = Task("a", flops=1, inputs=(ext,), outputs=(mid,))
    b = Task("b", flops=1, inputs=(mid,), outputs=(out,))
    wf = Workflow("w", [a, b])
    assert [f.name for f in wf.external_input_files()] == ["ext"]
    assert [f.name for f in wf.intermediate_files()] == ["mid"]
    assert [f.name for f in wf.output_files()] == ["out"]


def test_producer_and_consumers():
    wf = make_chain()
    assert wf.producer_of("fab").name == "a"
    assert wf.producer_of("nonexistent") is None
    assert [t.name for t in wf.consumers_of("fbc")] == ["c"]


def test_data_footprint_counts_each_file_once():
    shared = File("shared", 100)
    a = Task("a", flops=1, outputs=(shared,))
    b = Task("b", flops=1, inputs=(shared,))
    c = Task("c", flops=1, inputs=(shared,))
    wf = Workflow("w", [a, b, c])
    assert wf.data_footprint == 100


def test_total_and_critical_path_flops():
    wf = make_chain()
    assert wf.total_flops == pytest.approx(6e9)
    assert wf.critical_path_flops() == pytest.approx(6e9)

    # Diamond: a → (b, c) → d. Critical path takes the heavier branch.
    f1, f2, f3, f4 = (File(f"f{i}", 1) for i in range(4))
    tasks = [
        Task("a", flops=1e9, outputs=(f1, f2)),
        Task("b", flops=5e9, inputs=(f1,), outputs=(f3,)),
        Task("c", flops=2e9, inputs=(f2,), outputs=(f4,)),
        Task("d", flops=1e9, inputs=(f3, f4)),
    ]
    diamond = Workflow("diamond", tasks)
    assert diamond.critical_path_flops() == pytest.approx(7e9)


def test_task_lookup_error():
    wf = make_chain()
    with pytest.raises(KeyError):
        wf.task("nope")
