"""The package's public names and the config keys its README documents."""

import re
from dataclasses import fields
from pathlib import Path

import gimirec
from gimirec.config import HyperParams

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_resolves():
    assert len(set(gimirec.__all__)) == len(gimirec.__all__)
    assert [name for name in gimirec.__all__ if not hasattr(gimirec, name)] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gimirec import *", namespace)
    assert set(gimirec.__all__) <= set(namespace)


def test_readme_config_paragraph_names_every_key():
    paragraph = next(p for p in README.read_text(encoding="utf-8").split("\n\n")
                     if p.startswith("Hyperparameters resolve as"))
    named = set(re.findall(r"`(\w+)`", paragraph))
    assert [f.name for f in fields(HyperParams) if f.name not in named] == []
    # the one-value sentence lists its keys up to a semicolon
    start = paragraph.index("one accepted value")
    listed = set(re.findall(r"`(\w+)`", paragraph[start:paragraph.index(";", start)]))
    assert {"threads", "neg_distribution", "residual"} <= listed
