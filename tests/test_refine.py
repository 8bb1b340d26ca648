import math

import numpy as np
from cuboidlift.geom import Cuboid3D
from cuboidlift.ingest import ScoredAnnotation
from cuboidlift.refine import (
    apply_velocities,
    assign_track_ids,
    associate,
    estimate_velocity,
    refine_scores,
)


def ann(frame, x, y, cls="car", score=0.5):
    return ScoredAnnotation(
        frame_id=frame,
        cuboid=Cuboid3D(np.array([x, y, 0.8]), (4.0, 2.0, 1.6), 0.0),
        class_label=cls,
        score=score,
    )


class TestAssociate:
    def test_single_frame_singleton_tracks(self, taxonomy):
        frames = [[ann("0", 0, 0), ann("0", 10, 0, cls="adult")]]
        tracks = associate(frames, taxonomy)
        assert len(tracks) == 2
        assert all(len(t.members) == 1 for t in tracks)
        assert [t.track_id for t in tracks] == [0, 1]

    def test_static_object_two_frames(self, taxonomy):
        frames = [[ann("0", 5, 5)], [ann("1", 5, 5)]]
        tracks = associate(frames, taxonomy)
        assert len(tracks) == 1
        assert tracks[0].members == [(0, 0), (1, 0)]

    def test_beyond_radius_starts_new_track(self, taxonomy):
        frames = [[ann("0", 0, 0)], [ann("1", 5, 0)]]  # default radius 2.0
        tracks = associate(frames, taxonomy)
        assert len(tracks) == 2

    def test_classes_never_mix(self, taxonomy):
        frames = [[ann("0", 0, 0, cls="car")], [ann("1", 0.2, 0, cls="bus")]]
        tracks = associate(frames, taxonomy)
        assert len(tracks) == 2
        for t in tracks:
            labels = {frames[fi][ai].class_label for fi, ai in t.members}
            assert len(labels) == 1

    def test_crowded_identity_oracle(self, taxonomy):
        # known identities moving less than the radius per frame
        rng = np.random.default_rng(3)
        n_obj, n_frames = 12, 6
        starts = rng.uniform(-40, 40, size=(n_obj, 2))
        # keep objects at least 2 * radius apart at all times
        starts = starts[np.argsort(starts[:, 0])]
        starts[:, 0] = np.arange(n_obj) * 9.0
        vels = rng.uniform(-0.8, 0.8, size=(n_obj, 2))
        frames = []
        for f in range(n_frames):
            anns = [
                ann(str(f), *(starts[o] + vels[o] * f)) for o in range(n_obj)
            ]
            frames.append(anns)
        tracks = associate(frames, taxonomy)
        assert len(tracks) == n_obj
        for t in tracks:
            object_ids = {ai for fi, ai in t.members}
            assert len(object_ids) == 1  # per-frame index encodes identity here
            assert len(t.members) == n_frames

    def test_time_reversal_same_partition(self, taxonomy):
        rng = np.random.default_rng(7)
        frames = []
        for f in range(5):
            anns = []
            for o in range(6):
                anns.append(ann(str(f), o * 8.0 + rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)))
            frames.append(anns)
        fwd = associate(frames, taxonomy)
        rev = associate(frames[::-1], taxonomy)
        n = len(frames)

        def partition(tracks, flip):
            out = set()
            for t in tracks:
                members = frozenset(
                    ((n - 1 - fi) if flip else fi, ai) for fi, ai in t.members
                )
                out.add(members)
            return out

        assert partition(fwd, False) == partition(rev, True)

    def test_each_annotation_in_exactly_one_track(self, taxonomy):
        rng = np.random.default_rng(9)
        frames = [
            [ann(str(f), rng.uniform(-30, 30), rng.uniform(-30, 30)) for _ in range(8)]
            for f in range(4)
        ]
        tracks = associate(frames, taxonomy)
        seen = [m for t in tracks for m in t.members]
        assert len(seen) == len(set(seen)) == sum(len(f) for f in frames)


class TestRefineScores:
    def test_mean_replacement(self, taxonomy):
        frames = [[ann("0", 0, 0, score=0.2)], [ann("1", 0, 0, score=0.4)], [ann("2", 0, 0, score=0.6)]]
        tracks = associate(frames, taxonomy)
        out = refine_scores(tracks, frames)
        scores = [out[i][0].score for i in range(3)]
        assert all(math.isclose(s, 0.4) for s in scores)

    def test_single_member_unchanged(self, taxonomy):
        frames = [[ann("0", 0, 0, score=0.9)]]
        tracks = associate(frames, taxonomy)
        out = refine_scores(tracks, frames)
        assert out[0][0].score == 0.9

    def test_equal_scores_unchanged(self, taxonomy):
        # ten equal scores: sum/len gives 0.09999999999999999, not 0.1
        frames = [[ann(str(f), 0, 0, score=0.1)] for f in range(10)]
        tracks = associate(frames, taxonomy)
        assert len(tracks) == 1
        out = refine_scores(tracks, frames)
        assert [a.score for frame in out for a in frame] == [0.1] * 10

    def test_per_track_sum_and_count_preserved(self, taxonomy):
        rng = np.random.default_rng(11)
        frames = []
        for f in range(5):
            frames.append(
                [ann(str(f), o * 7.0 + rng.uniform(-0.5, 0.5), 0.0, score=float(rng.uniform(0, 1))) for o in range(6)]
            )
        tracks = associate(frames, taxonomy)
        out = refine_scores(tracks, frames)
        assert sum(len(f) for f in out) == sum(len(f) for f in frames)
        for t in tracks:
            before = sum(frames[fi][ai].score for fi, ai in t.members)
            after = sum(out[fi][ai].score for fi, ai in t.members)
            assert math.isclose(before, after, rel_tol=1e-12)

    def test_non_score_fields_untouched(self, taxonomy):
        frames = [[ann("0", 1, 2, score=0.2)], [ann("1", 1, 2, score=0.8)]]
        tracks = associate(frames, taxonomy)
        out = refine_scores(tracks, frames)
        assert np.array_equal(out[0][0].cuboid.center, frames[0][0].cuboid.center)
        assert out[0][0].class_label == frames[0][0].class_label
        assert out[0][0].frame_id == "0"


class TestVelocity:
    def make_track(self, centers, dt_us=500_000):
        frames = [[ann(str(i), x, y)] for i, (x, y) in enumerate(centers)]
        timestamps = [i * dt_us for i in range(len(centers))]
        from cuboidlift.refine import Track

        track = Track(track_id=0, class_label="car", members=[(i, 0) for i in range(len(centers))])
        return track, frames, timestamps

    def test_static_track(self):
        track, frames, ts = self.make_track([(3, 4)] * 4)
        vels = estimate_velocity(track, frames, ts)
        assert all(np.allclose(v, (0, 0)) for v in vels)

    def test_constant_velocity_recovered(self):
        v = (1.0, 0.5)
        centers = [(v[0] * 0.5 * i, v[1] * 0.5 * i) for i in range(5)]
        track, frames, ts = self.make_track(centers)
        vels = estimate_velocity(track, frames, ts)
        for got in vels:
            assert math.isclose(got[0], v[0], abs_tol=1e-9)
            assert math.isclose(got[1], v[1], abs_tol=1e-9)

    def test_single_member_has_no_velocity(self):
        track, frames, ts = self.make_track([(0, 0)])
        assert estimate_velocity(track, frames, ts) == [None]

    def test_apply_velocities(self, taxonomy):
        frames = [[ann("0", 0, 0)], [ann("1", 1, 0)]]
        tracks = associate(frames, taxonomy)
        out = apply_velocities(tracks, frames, [0, 1_000_000])
        assert np.allclose(out[0][0].velocity, (1.0, 0.0))
        assert np.allclose(out[1][0].velocity, (1.0, 0.0))


class TestAssignTrackIds:
    def test_ids_assigned_in_first_appearance_order(self, taxonomy):
        frames = [[ann("0", 0, 0), ann("0", 10, 0)], [ann("1", 0, 0), ann("1", 30, 0)]]
        tracks = associate(frames, taxonomy)
        out = assign_track_ids(tracks, frames)
        assert out[0][0].track_id == 0
        assert out[0][1].track_id == 1
        assert out[1][0].track_id == 0  # continues track 0
        assert out[1][1].track_id == 2  # new appearance
