"""Interconnect: message types and the constant-latency network (§5.1)."""

from repro.network.message import DIR_BOUND, MsgKind, Message
from repro.network.network import Network

__all__ = ["DIR_BOUND", "Message", "MsgKind", "Network"]
