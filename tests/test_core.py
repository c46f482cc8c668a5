import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackgraph.core import (
    MAX_BOX_AREA,
    BoundingBox,
    Detection,
    Edge,
    EdgeKind,
    NodeKind,
    TrackGraph,
    Tracklet,
    ValidationError,
    box_fault,
    box_faults,
    box_rows,
    iou_matrix,
    iou_rows,
)
from trackgraph.ingest import DetectionSet
from trackgraph.mpn import graph_tensors

from conftest import graph_of, iou


def make_det(frame, x=0.0, y=0.0, w=10.0, h=10.0, emb=(1.0, 0.0), gt_id=None):
    return Detection(
        frame=frame,
        box=BoundingBox(x, y, w, h),
        confidence=1.0,
        embedding=np.asarray(emb, dtype=np.float64),
        gt_id=gt_id,
    )


# ---------------------------------------------------------------- boxes


def test_iou_identical_box_is_one():
    b = BoundingBox(3.0, 4.0, 5.0, 6.0)
    assert iou(b, b) == 1.0


def test_iou_disjoint_boxes_is_zero():
    a = BoundingBox(0.0, 0.0, 2.0, 2.0)
    b = BoundingBox(10.0, 10.0, 2.0, 2.0)
    assert iou(a, b) == 0.0


def test_iou_touching_edges_is_zero():
    a = BoundingBox(0.0, 0.0, 2.0, 2.0)
    b = BoundingBox(2.0, 0.0, 2.0, 2.0)
    assert iou(a, b) == 0.0


def test_iou_known_overlap():
    # boxes (0,0,2,2) and (1,0,2,2): intersection is the 1x2 strip,
    # union is 4 + 4 - 2 = 6, so iou = 1/3
    a = BoundingBox(0.0, 0.0, 2.0, 2.0)
    b = BoundingBox(1.0, 0.0, 2.0, 2.0)
    assert iou(a, b) == pytest.approx(1.0 / 3.0, rel=1e-12)


# coordinates on a coarse grid make identical, touching (ix == 0) and
# nested boxes common; the fine values exercise inexact rounding
_coord = st.one_of(st.integers(-4, 4).map(float),
                   st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False))
_extent = st.one_of(st.integers(1, 4).map(float),
                    st.floats(0.01, 6.0, allow_nan=False, allow_infinity=False))
_box = st.builds(BoundingBox, _coord, _coord, _extent, _extent)


@settings(max_examples=200, deadline=None)
@given(a=st.lists(_box, min_size=1, max_size=4),
       b=st.lists(_box, min_size=1, max_size=4))
def test_iou_matrix_equals_scalar_iou(a, b):
    m = iou_matrix(box_rows(a), box_rows(b))
    assert m.shape == (len(a), len(b))
    for r, ba in enumerate(a):
        for c, bb in enumerate(b):
            assert m[r, c] == iou(ba, bb)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(_box, _box), max_size=6))
def test_iou_rows_equals_scalar_iou(pairs):
    a, b = box_rows(p for p, _ in pairs), box_rows(q for _, q in pairs)
    assert iou_rows(a, b).tolist() == [iou(p, q) for p, q in pairs]


@pytest.mark.parametrize("a, b", [
    ((3.0, 4.0, 5.0, 6.0), (3.0, 4.0, 5.0, 6.0)),  # identical: the clamp at 1
    ((0.1, 0.2, 0.3, 0.7), (0.1, 0.2, 0.3, 0.7)),  # identical, inexact floats
    ((0.0, 0.0, 2.0, 2.0), (2.0, 0.0, 2.0, 2.0)),  # touching: ix == 0
    ((0.0, 0.0, 2.0, 2.0), (0.0, 2.0, 2.0, 2.0)),  # touching: iy == 0
    ((0.0, 0.0, 10.0, 10.0), (2.0, 3.0, 4.0, 5.0)),  # nested
    ((2.0, 3.0, 4.0, 5.0), (0.0, 0.0, 10.0, 10.0)),  # nested, swapped
    ((0.0, 0.0, 2.0, 2.0), (10.0, 10.0, 2.0, 2.0)),  # disjoint
])
def test_iou_matrix_edge_cases_equal_scalar_iou(a, b):
    ba, bb = BoundingBox(*a), BoundingBox(*b)
    assert iou_matrix(box_rows([ba]), box_rows([bb]))[0, 0] == iou(ba, bb)


def test_box_rejects_nonpositive_extent():
    with pytest.raises(ValidationError):
        BoundingBox(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        BoundingBox(0.0, 0.0, 1.0, -2.0)


def test_box_rejects_nonfinite():
    with pytest.raises(ValidationError):
        BoundingBox(float("nan"), 0.0, 1.0, 1.0)


OVERFLOWING_BOXES = [
    (1e155, 1e155, 1e155, 1e155),  # w * h overflows
    (1e308, 0.0, 1e308, 1.0),  # x + w overflows
    (0.0, 1e308, 1.0, 1e308),  # y + h overflows
    (1.7e308, 0.0, 1e307, 1.0),  # x + w overflows, the area in bounds
    (0.0, 1.7e308, 1.0, 1e307),  # y + h overflows, the area in bounds
    (0.0, 0.0, 1e-200, 1e-200),  # w * h underflows to 0
    (0.0, 0.0, 1e154, 1e154),  # w * h is finite, but over MAX_BOX_AREA
    (0.0, 0.0, MAX_BOX_AREA, np.nextafter(1.0, 2.0)),  # one ulp over it
]


@pytest.mark.parametrize("box", OVERFLOWING_BOXES)
def test_box_rejects_overflowing_corners_and_area(box):
    with pytest.raises(ValidationError, match="finite corners"):
        BoundingBox(*box)


def largest_accepted_sides():
    """(w, h) of the largest boxes BoundingBox accepts, long and square."""
    side = np.sqrt(MAX_BOX_AREA)
    if side * side > MAX_BOX_AREA:
        side = np.nextafter(side, 0.0)
    return ((MAX_BOX_AREA, 1.0), (side, side), (1.0, MAX_BOX_AREA))


def test_box_faults_mask_the_boxes_box_fault_refuses():
    inf, nan = float("inf"), float("nan")
    boxes = OVERFLOWING_BOXES + [(-w / 2, 0.0, w, h) for w, h in largest_accepted_sides()]
    boxes += [(0.0, 0.0, 2.0, 3.0), (-1.0, -1.0, 1e-3, 1e3)]  # plain valid boxes
    for bad in (nan, inf, -inf):
        boxes += [(bad, 0.0, 1.0, 1.0), (0.0, bad, 1.0, 1.0),
                  (0.0, 0.0, bad, 1.0), (0.0, 0.0, 1.0, bad)]
    boxes += [(0.0, 0.0, w, h) for w, h in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
                                            (1.0, -1.0), (-1.0, -1.0), (-inf, -inf))]
    boxes += [(0.0, 0.0, 1.0, 1e300), (0.0, 0.0, -1.0, 1e300), (1e300, 0.0, 1e300, 1e300)]
    rows = np.asarray(boxes, dtype=np.float64)
    assert box_faults(rows).tolist() == [box_fault(*box) is not None for box in boxes]


def test_iou_of_the_largest_accepted_boxes_is_exact():
    for w, h in largest_accepted_sides():
        b = BoundingBox(-w / 2, 0.0, w, h)
        assert iou(b, b) == 1.0
        assert iou_matrix(box_rows([b]), box_rows([b]))[0, 0] == 1.0
        # half of it: the union is the whole box, with no overflow
        half = BoundingBox(-w / 2, 0.0, w / 2, h)
        assert iou(b, half) == iou_rows(box_rows([b]), box_rows([half]))[0]
        assert iou(b, half) == pytest.approx(0.5, rel=1e-15)


finite_boxes = st.builds(
    BoundingBox,
    x=st.floats(-1e3, 1e3),
    y=st.floats(-1e3, 1e3),
    w=st.floats(0.01, 1e3),
    h=st.floats(0.01, 1e3),
)


@settings(max_examples=200, deadline=None)
@given(a=finite_boxes, b=finite_boxes)
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert 0.0 <= v <= 1.0
    assert iou(b, a) == pytest.approx(v, rel=1e-12, abs=1e-15)


# ------------------------------------------------------------ detections


def test_detection_validates_confidence():
    with pytest.raises(ValidationError):
        Detection(0, BoundingBox(0, 0, 1, 1), 1.5, np.zeros(4))


def test_detection_validates_frame():
    with pytest.raises(ValidationError):
        Detection(-1, BoundingBox(0, 0, 1, 1), 0.5, np.zeros(4))


def test_detection_refuses_a_negative_gt_id():
    # -1 in a gt_ids column means "no identity", so no record may carry it
    for gt_id in (-1, -3):
        with pytest.raises(ValidationError, match="gt_id"):
            make_det(0, gt_id=gt_id)
    assert make_det(0, gt_id=0).gt_id == 0


def test_detection_embedding_is_readonly_float64():
    d = make_det(0, emb=[1, 2, 3])
    assert d.embedding.dtype == np.float64
    with pytest.raises(ValueError):
        d.embedding[0] = 9.0


# ------------------------------------------------------------- tracklets


def test_tracklet_from_members_orders_and_averages():
    d5 = make_det(5, emb=(0.0, 2.0))
    d3 = make_det(3, emb=(1.0, 0.0))
    t = Tracklet.from_members(7, [(11, d5), (10, d3)])
    assert t.id == 7
    assert t.detections == (d3, d5)
    assert t.det_indices == (10, 11)
    assert t.span == (3, 5)
    assert len(t) == 2
    # as a graph node, a tracklet's feature is its member mean
    feature = graph_tensors(graph_of((t,), [], [])).node_feat[0]
    assert np.all(feature == np.mean([d3.embedding, d5.embedding], axis=0))
    assert np.all(feature == [0.5, 1.0])


def test_detection_and_tracklet_answer_node_attributes():
    d = make_det(4, x=1.0, emb=(0.0, 3.0))
    assert d.kind is NodeKind.DET
    assert d.span == (4, 4)
    first, last = make_det(2, x=5.0, emb=(1.0, 1.0)), make_det(6, x=9.0, emb=(3.0, 1.0))
    t = Tracklet.from_members(0, [(0, first), (1, d), (2, last)])
    assert t.kind is NodeKind.TRAJ
    assert t.span == (2, 6)
    # as graph nodes: a detection reads its own box and embedding, a
    # tracklet its first member's box, its last member's box and the
    # member mean (descriptor offsets are 2 dx / summed heights)
    before, after = make_det(0, x=-3.0), make_det(9, x=13.0)
    for node, first_x, last_x, feature in ((d, 1.0, 1.0, d.embedding),
                                           (t, 5.0, 9.0, [4.0 / 3.0, 5.0 / 3.0])):
        tensors = graph_tensors(graph_of((before, node, after), [0, 1], [1, 2]))
        assert np.all(tensors.node_feat[1] == feature)
        assert tensors.feats[0, 0] == 2.0 * (first_x + 3.0) / 20.0
        assert tensors.feats[1, 0] == 2.0 * (13.0 - last_x) / 20.0


def test_tracklet_rejects_two_detections_same_frame():
    with pytest.raises(ValidationError):
        Tracklet.from_members(0, [(0, make_det(4)), (1, make_det(4))])


def test_tracklet_rejects_empty_and_misaligned_members():
    with pytest.raises(ValidationError):
        Tracklet.from_members(0, [])
    with pytest.raises(ValidationError):
        Tracklet(0, [0], [0, 1], [[0.0, 0.0, 1.0, 1.0]] * 2, [1.0] * 2,
                 np.ones((2, 2)), [-1] * 2)


def span_tracklet(tid, start, end):
    return Tracklet.from_members(tid, [(f, make_det(f)) for f in range(start, end + 1)])


# ----------------------------------------------------------------- graph


def test_graph_construction():
    # a part graph: node i is detection i of the set, read as its record
    d0, d1, d2 = make_det(0), make_det(1), make_det(3)
    g = graph_of((d0, d1, d2), [0, 1], [1, 2])
    assert g.groups is None and g.n_nodes == len(g.nodes) == 3
    assert [n.kind for n in g.nodes] == [NodeKind.DET] * 3
    assert g.nodes[0] is d0
    assert g.spans.tolist() == [[0, 0], [1, 1], [3, 3]]
    assert g.n_edges == 2
    assert g.u.dtype == g.v.dtype == np.int64
    assert g.edges == (Edge(0, 1, EdgeKind.DET_DET), Edge(1, 2, EdgeKind.DET_DET))
    # a trajectory graph: node i is a group of the set's detections,
    # read as a tracklet; a detection is a one-member group
    g = graph_of((d0, d1, span_tracklet(0, 3, 5)), [0, 1], [1, 2])
    assert g.n_nodes == len(g.nodes) == 3
    assert [n.kind for n in g.nodes] == [NodeKind.TRAJ] * 3
    assert g.nodes[0].detections == (d0,) and g.nodes[0].det_indices == (0,)
    assert g.nodes[2].span == (3, 5) and g.nodes[2].det_indices == (2, 3, 4)
    assert g.spans.tolist() == [[0, 0], [1, 1], [3, 5]]
    assert g.n_edges == 2
    assert g.edges == (Edge(0, 1, EdgeKind.TRAJ_TRAJ), Edge(1, 2, EdgeKind.TRAJ_TRAJ))


def test_graph_groups_are_checked_read_only_copies():
    dets = DetectionSet([0, 1, 1, 2], [[0.0, 0.0, 1.0, 1.0]] * 4, [1.0] * 4,
                        [-1] * 4, 3, np.ones((4, 2)))
    offsets, members = np.asarray([0, 2, 4]), np.asarray([0, 1, 2, 3])
    g = TrackGraph(dets, [], [], (offsets, members))
    offsets[1] = 1  # the caller's arrays stay the caller's
    assert g.groups[0].tolist() == [0, 2, 4] and g.spans.tolist() == [[0, 1], [1, 2]]
    for arr in g.groups:
        assert arr.dtype == np.int64 and not arr.flags.writeable
    bad_tables = [
        ([0, 2], [0, 1, 2]),  # offsets stop short of the members
        ([1, 2], [0, 1]),  # offsets start past 0
        ([0, 2, 2, 4], [0, 1, 2, 3]),  # an empty group
        ([0, 3, 2, 4], [0, 1, 2, 3]),  # offsets fall
        ([], []),  # no offsets at all
        ([0, 2], [0, 4]),  # a member past the set
        ([0, 2], [-1, 0]),  # a negative member
        ([0.0, 2.0], [0, 1]),  # float offsets
        ([[0, 2]], [0, 1]),  # 2-d offsets
    ]
    for offsets, members in bad_tables:
        with pytest.raises(ValidationError):
            TrackGraph(dets, [], [], (offsets, members))
    # frames must strictly increase in a group, with group_tracklets' message
    for members in ([1, 2], [1, 0]):
        with pytest.raises(ValidationError, match="tracklet frames must strictly increase"):
            TrackGraph(dets, [], [], ([0, 2], members))


def test_graph_rejects_backward_edge():
    # a part graph's detections come in frame order; one-member groups
    # need not
    with pytest.raises(ValidationError):
        graph_of((make_det(2), make_det(5)), [1], [0])
    with pytest.raises(ValidationError):
        graph_of((make_det(5), make_det(2)), [0], [1])


def test_graph_rejects_same_frame_edge():
    nodes = (make_det(2), make_det(2))
    with pytest.raises(ValidationError):
        graph_of(nodes, [0], [1])


def test_graph_rejects_duplicate_edge():
    nodes = (make_det(0), make_det(1))
    with pytest.raises(ValidationError):
        graph_of(nodes, [0, 0], [1, 1])


def test_graph_rejects_dangling_endpoint():
    nodes = (make_det(0),)
    with pytest.raises(ValidationError):
        graph_of(nodes, [0], [3])
    with pytest.raises(ValidationError):
        graph_of(nodes, [-1], [0])


def test_graph_rejects_malformed_endpoint_arrays():
    nodes = (make_det(0), make_det(1))
    for u, v in (([0], []), ([0.0], [1.0]), ([[0]], [[1]]), ([True], [True])):
        with pytest.raises(ValidationError):
            graph_of(nodes, u, v)


def test_graph_endpoints_are_read_only_copies():
    u, v = np.asarray([0, 0]), np.asarray([1, 2])
    g = graph_of((make_det(0), make_det(1), make_det(2)), u, v)
    u[0] = 1  # the caller's array stays the caller's
    assert g.u.tolist() == [0, 0]
    tensors = graph_tensors(g)
    # the graph lists its node spans once; the tensors share them
    assert g.spans.tolist() == [[0, 0], [1, 1], [2, 2]]
    assert tensors.spans is g.spans
    assert graph_of((), [], []).spans.shape == (0, 2)
    for arr in (g.u, g.v, g.spans, tensors.u, tensors.v):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1


def brute_force_accepts(nodes, u, v):
    """The graph invariants, checked edge by edge."""
    seen = set()
    for a, b in zip(u, v):
        if not (0 <= a < len(nodes) and 0 <= b < len(nodes)):
            return False
        if (a, b) in seen or nodes[a].span[1] >= nodes[b].span[0]:
            return False
        seen.add((a, b))
    return True


@st.composite
def graph_parts(draw):
    """Nodes and (u, v) lists: mostly forward pairs, some repeated, some stray."""
    spans = draw(st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 3)), min_size=1, max_size=6
    ))
    nodes = tuple(
        make_det(start) if length == 0 else span_tracklet(k, start, start + length)
        for k, (start, length) in enumerate(spans)
    )
    n = len(nodes)
    forward = [
        (a, b) for a in range(n) for b in range(n)
        if nodes[a].span[1] < nodes[b].span[0]
    ]
    picked = draw(st.lists(
        st.sampled_from(forward), max_size=8, unique=draw(st.booleans())
    )) if forward else []
    if draw(st.integers(0, 3)) == 0:
        picked.append(draw(st.tuples(st.integers(-1, n), st.integers(-1, n))))
    pairs = draw(st.permutations(picked))
    return nodes, [a for a, _ in pairs], [b for _, b in pairs]


@settings(max_examples=200, deadline=None)
@given(graph_parts())
def test_graph_accepts_exactly_what_a_per_edge_check_accepts(parts):
    nodes, u, v = parts
    try:
        g = graph_of(nodes, np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64))
    except ValidationError:
        assert not brute_force_accepts(nodes, u, v)
    else:
        assert brute_force_accepts(nodes, u, v)
        assert g.u.tolist() == u and g.v.tolist() == v
