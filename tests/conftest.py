"""Shared fixtures: small synthetic worlds reused across test modules."""

import json

import numpy as np
import pytest

from promolab.datagen import GenConfig, generate_rct
from promolab.model import ModelConfig

_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Collector for one pass/fail line per acceptance criterion."""
    return _acceptance_lines


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_world():
    """A 3-arm, 3000-customer trial with ground truth. Session-scoped; do not mutate."""
    cfg = GenConfig(
        n_customers=3000,
        coupon_values=np.array([0.0, 1.5, 3.0]),
        seed=427,
    )
    dataset, truth = generate_rct(cfg)
    return cfg, dataset, truth


@pytest.fixture(scope="session")
def fast_model_config():
    """A narrow full-architecture config that trains in a couple of seconds."""
    return ModelConfig(
        hidden_dims=(32, 32, 16, 8),
        batch_size=512,
        learning_rate=3e-3,
        max_epochs=12,
        patience_epochs=4,
        plateau_epochs=2,
    )


def _write_defective_checkpoint(good, bad, defect):
    """Copy the checkpoint ``good`` to ``bad`` with one ``defect``."""
    if defect == "text_file":
        bad.write_text("not a checkpoint\n")
        return
    if defect == "truncated":
        data = good.read_bytes()
        bad.write_bytes(data[: len(data) // 2])
        return
    with np.load(good, allow_pickle=False) as payload:
        arrays = {name: payload[name] for name in payload.files}
    meta = json.loads(arrays.pop("__header__").tobytes())
    if defect == "missing_array":
        del arrays["trunk_a__w0"]
    elif defect == "short_embedding":
        arrays["embedding"] = arrays["embedding"][:-1]
    elif defect == "short_feature_sd":
        arrays["feature_sd"] = arrays["feature_sd"][:-1]
    elif defect == "no_parts":
        del meta["parts"]
    elif defect == "unknown_config_key":
        meta["config"]["frobnicate"] = 1
    elif defect == "full_header_direct_only_parts":
        # a full config over what a direct_only model stores: the first two parts
        meta["parts"] = meta["parts"][:2]
        kept = {part["name"] for part in meta["parts"]}
        arrays = {k: v for k, v in arrays.items() if "__" not in k or k.split("__")[0] in kept}
    header = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(bad, __header__=header, **arrays)


@pytest.fixture(
    params=[
        "missing_array",
        "short_embedding",
        "short_feature_sd",
        "no_parts",
        "unknown_config_key",
        "text_file",
        "truncated",
        "full_header_direct_only_parts",
    ]
)
def defective_checkpoint(request, tmp_path):
    """A writer of one malformed copy of a checkpoint, once per kind of defect.

    Call it with a good ``model.npz`` of the ``full`` variant; it returns the
    path of the copy, which ``load_model`` must reject.
    """

    def write(good):
        bad = tmp_path / "bad.npz"
        _write_defective_checkpoint(good, bad, request.param)
        return bad

    return write
