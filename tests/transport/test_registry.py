"""The transport names: two wires, each also chaos-wrapped."""

import pytest

from repro.transport import (
    DEFAULT_TRANSPORT,
    available_transports,
    create_transport,
)
from repro.transport.base import MODES, Transport, check_mode


class TestRegistry:
    def test_builtin_adapters_are_registered(self):
        assert available_transports() == (
            "chaos+tcp", "chaos+websocket", "tcp", "websocket",
        )

    def test_names_are_sorted_for_stable_cli_help(self):
        names = available_transports()
        assert list(names) == sorted(names)

    def test_default_is_the_byte_compatible_tcp_wire(self):
        assert DEFAULT_TRANSPORT == "tcp"
        assert create_transport().name == "tcp"

    def test_every_name_instantiates_its_adapter(self):
        for name in available_transports():
            transport = create_transport(name)
            assert isinstance(transport, Transport)
            assert transport.name == name

    def test_unknown_name_lists_the_alternatives(self):
        with pytest.raises(ValueError, match="websocket"):
            create_transport("carrier-pigeon")


class TestCheckMode:
    def test_accepts_both_directions(self):
        for mode in MODES:
            assert check_mode(mode) == mode

    def test_rejects_anything_else(self):
        with pytest.raises(ValueError, match="broadcast"):
            check_mode("broadcast")
