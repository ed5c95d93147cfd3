"""Transport registry: names to factories."""

import pytest

from repro.transport import (
    DEFAULT_TRANSPORT,
    available_transports,
    create_transport,
    register,
)
from repro.transport.base import MODES, Transport, check_mode
from repro.transport.registry import _FACTORIES


class TestRegistry:
    def test_builtin_adapters_are_registered(self):
        assert set(available_transports()) >= {"tcp", "websocket", "http"}

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

    def test_register_custom_factory(self):
        class NullTransport(Transport):
            name = "null"

            async def accept(self, reader, writer, mode):
                return None

            async def connect(self, host, port, mode):
                raise OSError("null transport never connects")

        register("null", NullTransport)
        try:
            assert "null" in available_transports()
            assert isinstance(create_transport("null"), NullTransport)
        finally:
            del _FACTORIES["null"]

    def test_register_rejects_empty_name(self):
        with pytest.raises(ValueError):
            register("", object)


class TestCheckMode:
    def test_accepts_both_directions(self):
        for mode in MODES:
            assert check_mode(mode) == mode

    def test_rejects_anything_else(self):
        with pytest.raises(ValueError, match="broadcast"):
            check_mode("broadcast")
