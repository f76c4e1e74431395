
import numpy as np
import pytest

import mrcouple as mc
from mrcouple.mesh import DIRICHLET, INTERFACE, INTERIOR


class TestBuildMesh:
    def test_single_element_all_boundary(self):
        m = mc.build_mesh(1, 1, 1)
        assert len(m.nodes) == 4
        assert len(m.quads) == 1
        assert m.n_free == 0

    def test_two_by_two_grid(self):
        m = mc.build_mesh(1, 2, 2)
        assert len(m.nodes) == 9
        assert np.count_nonzero(m.kind == INTERIOR) == 1
        assert np.count_nonzero(m.kind == INTERFACE) == 1
        assert m.n_free == 2
        # the interface unknown is the midpoint of the interface edge
        (node,) = m.interface_nodes
        assert np.allclose(m.nodes[node], [0.5, 0.0])

    def test_h_formula(self):
        m = mc.build_mesh(2, 4, 4)
        assert m.h == pytest.approx(np.hypot(0.25, 0.25))

    def test_subdomain_two_geometry(self):
        m = mc.build_mesh(2, 3, 3)
        assert m.nodes[:, 1].min() == pytest.approx(-1.0)
        assert m.nodes[:, 1].max() == pytest.approx(0.0)
        assert np.allclose(m.nodes[m.interface_nodes, 1], 0.0)

    def test_interface_corners_are_dirichlet(self):
        m = mc.build_mesh(1, 4, 4)
        corners = [i for i, (x, y) in enumerate(m.nodes) if y == 0.0 and x in (0.0, 1.0)]
        assert all(m.kind[c] == DIRICHLET for c in corners)

    def test_element_areas_sum_to_one(self):
        for sub, nx, ny in ((1, 3, 5), (2, 4, 2)):
            m = mc.build_mesh(sub, nx, ny)
            total = 0.0
            for quad in m.quads:
                xy = m.nodes[quad]
                total += 0.5 * abs(
                    np.dot(xy[:, 0], np.roll(xy[:, 1], -1)) - np.dot(xy[:, 1], np.roll(xy[:, 0], -1))
                )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            mc.build_mesh(1, 0, 2)
        with pytest.raises(ValueError):
            mc.build_mesh(3, 2, 2)


class TestMatchInterfaces:
    def test_matching_grids(self):
        imap = mc.match_interfaces(mc.build_mesh(1, 4, 4), mc.build_mesh(2, 4, 3))
        assert imap.d_gamma == 3
        assert np.allclose(imap.x, [0.25, 0.5, 0.75])

    def test_mismatched_grids_rejected(self):
        with pytest.raises(mc.MatchError):
            mc.match_interfaces(mc.build_mesh(1, 4, 4), mc.build_mesh(2, 5, 4))

    def test_degenerate_interface_warns(self, caplog):
        with caplog.at_level("WARNING", logger="mrcouple.mesh"):
            imap = mc.match_interfaces(mc.build_mesh(1, 1, 2), mc.build_mesh(2, 1, 2))
        assert imap.d_gamma == 0
        assert any("degenerate" in rec.message for rec in caplog.records)

    def test_wrong_order_rejected(self):
        with pytest.raises(mc.MatchError):
            mc.match_interfaces(mc.build_mesh(2, 4, 4), mc.build_mesh(1, 4, 4))

    def test_slot_round_trip(self):
        m1, m2 = mc.build_mesh(1, 5, 3), mc.build_mesh(2, 5, 2)
        imap = mc.match_interfaces(m1, m2)
        # each interface slot points at a distinct free dof of each mesh
        assert len(set(imap.dofs_1.tolist())) == imap.d_gamma
        assert len(set(imap.dofs_2.tolist())) == imap.d_gamma
        for k in range(imap.d_gamma):
            node1 = m1.interface_nodes[k]
            assert m1.free_dof[node1] == imap.dofs_1[k]
            assert m1.nodes[node1, 0] == pytest.approx(imap.x[k])
