import numpy as np

from mapsparse import _quat


def random_units(rng, n):
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def test_multiply_identity_exact():
    rng = np.random.default_rng(0)
    q = random_units(rng, 50)
    ident = np.tile(_quat.IDENTITY, (50, 1))
    assert np.array_equal(_quat.multiply(q, ident), q)


def test_conjugate_gives_zero_angle():
    rng = np.random.default_rng(1)
    q = random_units(rng, 200)
    rel = _quat.multiply(q, _quat.conjugate(q))
    assert np.allclose(_quat.angle(rel), 0.0, atol=1e-12)


def test_angle_symmetric_under_conjugation():
    rng = np.random.default_rng(2)
    q = random_units(rng, 200)
    assert np.allclose(_quat.angle(q), _quat.angle(_quat.conjugate(q)))


def test_matrix_round_trip():
    rng = np.random.default_rng(3)
    q = random_units(rng, 500)
    q[q[:, 0] < 0] *= -1.0  # canonical sign
    back = _quat.from_matrix(_quat.to_matrix(q))
    assert np.allclose(back, q, atol=1e-12)


def test_to_matrix_is_rotation():
    rng = np.random.default_rng(4)
    R = _quat.to_matrix(random_units(rng, 100))
    eye = np.einsum("nij,nkj->nik", R, R)
    assert np.allclose(eye, np.eye(3), atol=1e-12)
    assert np.allclose(np.linalg.det(R), 1.0, atol=1e-12)


def test_from_rotvec_zero_is_exact_identity():
    q = _quat.from_rotvec(np.zeros(3))
    assert np.array_equal(q, _quat.IDENTITY)


def test_from_rotvec_angle_matches_norm():
    rng = np.random.default_rng(5)
    w = rng.normal(scale=0.5, size=(300, 3))
    q = _quat.from_rotvec(w)
    assert np.allclose(_quat.angle(q), np.linalg.norm(w, axis=1), atol=1e-12)
