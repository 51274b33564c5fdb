"""One holder, two tenant kinds: a reload never changes the kind.

A :class:`repro.serve.SnapshotHolder` built from a ``.rsnap`` serves
one dataset and one built from a ``.rser`` serves a release train.  A
reload from a file of the other kind must fail like a corrupt file:
typed :class:`repro.store.StoreError`, the old generation and the
``/readyz`` shape kept, one more failed reload counted.
"""

import pytest

from repro.serve import Request, ServeApp, SnapshotHolder
from repro.series import write_series
from repro.store import StoreError, write_snapshot
from repro.synth import EvolutionConfig, evolve_corpus
from repro.synth.paper import PaperScaleConfig


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    releases = evolve_corpus(EvolutionConfig(
        n_releases=3, base=PaperScaleConfig.at_scale(0.005, seed=5),
        seed=5)).datasets()
    root = tmp_path_factory.mktemp("kinds")
    write_snapshot(root / "one.rsnap", releases[0])
    write_series(root / "train.rser", releases)
    return {"rsnap": root / "one.rsnap", "rser": root / "train.rser"}


def readyz(app):
    response = app.handle(Request("GET", "/readyz"))
    assert response.status == 200, response.body
    return response.json_payload()


@pytest.mark.parametrize("tenant, offered", [("rsnap", "rser"),
                                             ("rser", "rsnap")])
def test_reload_from_the_other_kind_fails_typed(paths, tenant, offered):
    app = ServeApp(SnapshotHolder.from_file(paths[tenant]))
    before = readyz(app)
    with pytest.raises(StoreError):
        app.reload_from_path(paths[offered])
    after = readyz(app)
    assert after == before
    assert after["generation"] == 1
    assert after["format"] == tenant
    assert app.holder.failed_reloads == 1
    assert app.holder.reloads == 0
    # The same kind still reloads.
    assert app.reload_from_path(paths[tenant]).generation == 2
