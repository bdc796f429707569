"""Protocol variants: the knob combinations the paper evaluates.

A :class:`ProtocolVariant` is the *structural* projection of a
:class:`~repro.config.SystemConfig` — exactly the knobs that change which
transitions exist, nothing that merely changes timing.  One transition
table is built per variant (and memoized), so a 32-node machine shares a
single immutable table across all its controllers.

:class:`Bugs` re-introduces historical protocol races for the state-space
checker's regression tests; production controllers always build with the
default (no bugs).
"""

import enum
from dataclasses import dataclass

from repro.config import Consistency, IdentifyScheme, SIMechanism


class TearoffMode(enum.Enum):
    OFF = "off"
    WC = "wc"  # §3.3: untracked copies under weak consistency
    SC = "sc"  # §3.3 extension: single tear-off copy, Scheurich's condition


@dataclass(frozen=True)
class Bugs:
    """Reverted historical fixes (state-space checker regression knobs).

    ``fifo_overflow_ignores_mshr``
        PR 1's race: a FIFO overflow victim was self-invalidated even when
        a transaction for the same block was still in flight — the stale
        duplicate FIFO entry yanked a just-granted DATA_EX fill.
    ``notification_consumed_as_ack``
        The pre-seed race documented in ``directory/controller.py``:
        crossing WB/SI_NOTIFY/REPL notifications were consumed as
        invalidation-acknowledgment substitutes, letting a stale INV_ACK
        alias into the next transaction.
    ``tardis_write_ignores_lease``
        Tardis model bug: a write advances ``wts`` past the previous
        ``wts`` but *not* past the outstanding read lease (``rts``), so a
        leased reader can still observe the pre-write value at a logical
        time at or after the write — exactly what the timestamp-aware
        data-value invariant exists to catch.
    ``si_notice_behind_inv_ack``
        The pre-PR-5 cache-side race behind the pinned WC + STATES +
        tear-off coherence-order violation: a sync-point flush
        invalidates frames immediately but queues the SI_NOTIFY sends
        behind the flush cost, so an INV already queued at the
        controller was acknowledged *without data* ahead of the dirty
        notice on the node->home lane.  The home completed the racing
        transaction with its stale memory copy, granted it onward (a
        tear-off copy under WC + STATES), cleared the owner, and then
        dropped the late data-carrying notice as stale — losing the
        final write.  The fix consumes the queued notice so the data
        rides the acknowledgment.
    """

    fifo_overflow_ignores_mshr: bool = False
    notification_consumed_as_ack: bool = False
    tardis_write_ignores_lease: bool = False
    si_notice_behind_inv_ack: bool = False

    def __bool__(self):
        return (
            self.fifo_overflow_ignores_mshr
            or self.notification_consumed_as_ack
            or self.tardis_write_ignores_lease
            or self.si_notice_behind_inv_ack
        )


NO_BUGS = Bugs()


@dataclass(frozen=True)
class ProtocolVariant:
    """Structural protocol knobs (everything that adds/removes transitions)."""

    wc: bool = False
    identify: IdentifyScheme = IdentifyScheme.NONE
    mechanism: SIMechanism = None  # None when DSI is off
    tearoff: TearoffMode = TearoffMode.OFF
    migratory: bool = False
    tardis: bool = False

    def __post_init__(self):
        if self.tardis:
            if self.dsi or self.tearoff is not TearoffMode.OFF or self.migratory:
                raise ValueError(
                    "tardis replaces DSI identification, tear-off and the "
                    "migratory optimization"
                )
            return
        if self.dsi and self.mechanism is None:
            raise ValueError("a DSI variant needs a self-invalidation mechanism")
        if not self.dsi and self.mechanism is not None:
            raise ValueError("mechanism is meaningless without identification")
        if self.tearoff is TearoffMode.WC and not self.wc:
            raise ValueError("tear-off blocks require weak consistency")
        if self.tearoff is TearoffMode.SC and self.wc:
            raise ValueError("sc_tearoff is the sequentially consistent variant")
        if self.tearoff is not TearoffMode.OFF and self.identify in (
            IdentifyScheme.NONE,
            IdentifyScheme.CACHE,
        ):
            raise ValueError("tear-off blocks need directory-side identification")

    # ------------------------------------------------------------------
    @property
    def dsi(self):
        return self.identify is not IdentifyScheme.NONE

    @property
    def fifo(self):
        return self.mechanism is SIMechanism.FIFO

    @property
    def any_tearoff(self):
        return self.tearoff is not TearoffMode.OFF

    @classmethod
    def from_config(cls, config):
        if config.tardis:
            return cls(wc=config.consistency is Consistency.WC, tardis=True)
        if config.tearoff:
            tearoff = TearoffMode.WC
        elif config.sc_tearoff:
            tearoff = TearoffMode.SC
        else:
            tearoff = TearoffMode.OFF
        return cls(
            wc=config.consistency is Consistency.WC,
            identify=config.identify,
            mechanism=config.si_mechanism if config.dsi_enabled else None,
            tearoff=tearoff,
            migratory=config.migratory,
        )

    def describe(self):
        """Short label, e.g. ``WC+DSI(V)+FIFO+TO`` (mirrors config.describe)."""
        label = "WC" if self.wc else "SC"
        if self.tardis:
            return label + "+TARDIS"
        if self.dsi:
            scheme = {
                IdentifyScheme.STATES: "S",
                IdentifyScheme.VERSION: "V",
                IdentifyScheme.CACHE: "C",
            }[self.identify]
            label += f"+DSI({scheme})"
            if self.fifo:
                label += "+FIFO"
            if self.any_tearoff:
                label += "+TO"
        if self.migratory:
            label += "+MIG"
        return label


def enumerate_variants(migratory=False):
    """Every valid knob combination (the ``check-protocol`` sweep).

    SC/WC × identification × mechanism × tear-off, honouring the
    :class:`~repro.config.SystemConfig` validation rules.  The mechanism
    axis collapses when identification is off (no blocks are ever marked,
    so neither mechanism has anything to do).
    """
    variants = []
    for wc in (False, True):
        for identify in IdentifyScheme:
            if identify is IdentifyScheme.NONE:
                mechanisms = (None,)
            else:
                mechanisms = (SIMechanism.SYNC_FLUSH, SIMechanism.FIFO)
            for mechanism in mechanisms:
                modes = [TearoffMode.OFF]
                if identify in (IdentifyScheme.STATES, IdentifyScheme.VERSION):
                    modes.append(TearoffMode.WC if wc else TearoffMode.SC)
                for mode in modes:
                    variants.append(
                        ProtocolVariant(
                            wc=wc,
                            identify=identify,
                            mechanism=mechanism,
                            tearoff=mode,
                            migratory=migratory,
                        )
                    )
    return variants


def tardis_variants():
    """The Tardis family (orthogonal to the DSI knob grid): SC and WC."""
    return [ProtocolVariant(wc=wc, tardis=True) for wc in (False, True)]


def all_variants():
    """All 46 structural variants: the DSI knob grid without and with the
    migratory optimization, then the Tardis family."""
    return enumerate_variants(False) + enumerate_variants(True) + tardis_variants()
