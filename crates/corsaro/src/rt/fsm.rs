//! Figure 8: the per-VP state machine of the RT plugin.
//!
//! [`step`] is the one place a VP's [`MacroState`] changes. It maps a
//! state and one of the paper's special events to the next state and
//! the [`CellAction`] the plugin then carries out on the VP's cells.
//! Shadow cells, E2's timestamp rule and the accuracy counters live
//! with the cells in the plugin; nothing here reads or writes them.

/// The Figure 8 macro states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MacroState {
    /// No consistent routing table available.
    Down,
    /// Down, with a RIB dump being applied.
    DownRibApplication,
    /// Consistent routing table available.
    Up,
    /// Up, with a new RIB dump being applied into shadow cells.
    UpRibApplication,
}

/// Every state, in checkpoint-code order.
const STATES: [MacroState; 4] = [
    MacroState::Down,
    MacroState::DownRibApplication,
    MacroState::Up,
    MacroState::UpRibApplication,
];

impl MacroState {
    /// Whether a consistent routing table is available.
    pub fn table_available(self) -> bool {
        matches!(self, MacroState::Up | MacroState::UpRibApplication)
    }

    /// The state's checkpoint byte.
    pub(crate) fn code(self) -> u8 {
        self as u8
    }

    /// The state a checkpoint byte names, if any.
    pub(crate) fn from_code(code: u8) -> Option<MacroState> {
        STATES.get(code as usize).copied()
    }
}

/// What happened to a VP, as Figure 8 sees it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum VpEvent {
    /// A RIB dump starts being applied, or the VP joins the one under
    /// way (first seen mid-RIB, or forced by E4 mid-RIB).
    RibBegin,
    /// The RIB dump ended clean and held rows for the VP.
    RibEnd,
    /// The RIB dump held a corrupted record (E1).
    RibCorrupted,
    /// The RIB dump ended clean without a row for the VP (footnote 5).
    /// Rows are the only writers of shadow cells, so the VP has none.
    RibAbsent,
    /// A corrupted Updates record (E3).
    CorruptUpdate,
    /// A state message reaching Established (E4).
    SessionUp,
    /// A state message leaving Established (E4).
    SessionDown,
}

/// What the plugin does to the VP's cells after a transition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CellAction {
    /// Leave the cells as they are.
    Keep,
    /// Drop the dump's shadow cells (E1).
    DiscardShadows,
    /// Withdraw every announced main cell.
    ClearTable,
    /// Check the main cells against the shadows, then apply the
    /// shadows under E2.
    MergeShadows,
}

/// The Figure 8 transition for `event` in `state`.
pub(crate) fn step(state: MacroState, event: VpEvent) -> (MacroState, CellAction) {
    use MacroState::*;
    use VpEvent::*;
    match (state, event) {
        (Up | UpRibApplication, RibBegin) => (UpRibApplication, CellAction::Keep),
        (Down | DownRibApplication, RibBegin) => (DownRibApplication, CellAction::Keep),
        (_, RibEnd) => (Up, CellAction::MergeShadows),
        (UpRibApplication, RibCorrupted) => (Up, CellAction::DiscardShadows),
        (_, RibCorrupted) => (Down, CellAction::DiscardShadows),
        (_, RibAbsent) => (Down, CellAction::ClearTable),
        (_, CorruptUpdate) => (Down, CellAction::Keep),
        (_, SessionUp) => (Up, CellAction::Keep),
        (_, SessionDown) => (Down, CellAction::ClearTable),
    }
}

#[cfg(test)]
mod tests {
    use super::CellAction::*;
    use super::MacroState::*;
    use super::VpEvent::*;
    use super::*;

    const EVENTS: [VpEvent; 7] = [
        RibBegin,
        RibEnd,
        RibCorrupted,
        RibAbsent,
        CorruptUpdate,
        SessionUp,
        SessionDown,
    ];

    /// Outside a RIB dump every VP is `Down` or `Up`; inside one it is
    /// `DownRibApplication`, `UpRibApplication`, or `Down` after E3.
    /// A row that cannot occur says why.
    #[rustfmt::skip]
    const TABLE: [(MacroState, VpEvent, MacroState, CellAction, &str); 28] = [
        (Down, RibBegin, DownRibApplication, Keep,
            "Figure 8: a dump starts on a down VP; also a VP first seen mid-RIB, and E4 down mid-RIB rejoining"),
        (DownRibApplication, RibBegin, DownRibApplication, Keep,
            "cannot occur: a dump begins only when none is under way, and joiners are Down or Up"),
        (Up, RibBegin, UpRibApplication, Keep,
            "Figure 8: a dump starts on an up VP; its rows fill shadows while the main cells serve; also E4 up mid-RIB rejoining"),
        (UpRibApplication, RibBegin, UpRibApplication, Keep,
            "cannot occur: a dump begins only when none is under way, and joiners are Down or Up"),
        (Down, RibEnd, Up, MergeShadows,
            "E3 mid-RIB, then a clean end: the dump's rows rebuild the table"),
        (DownRibApplication, RibEnd, Up, MergeShadows,
            "Figure 8: a clean dump gives the VP its first consistent table"),
        (Up, RibEnd, Up, MergeShadows,
            "cannot occur: Up is never a mid-RIB state"),
        (UpRibApplication, RibEnd, Up, MergeShadows,
            "Figure 8: the new dump is checked against and merged into the table (E2)"),
        (Down, RibCorrupted, Down, DiscardShadows,
            "E1 after E3 mid-RIB: the dump is ignored"),
        (DownRibApplication, RibCorrupted, Down, DiscardShadows,
            "E1: the dump is ignored, the VP stays down"),
        (Up, RibCorrupted, Down, DiscardShadows,
            "cannot occur: Up is never a mid-RIB state"),
        (UpRibApplication, RibCorrupted, Up, DiscardShadows,
            "E1: the dump is ignored, the table stays up"),
        (Down, RibAbsent, Down, ClearTable,
            "footnote 5 after E3 mid-RIB"),
        (DownRibApplication, RibAbsent, Down, ClearTable,
            "footnote 5: a down VP with no row in the dump, e.g. first seen mid-RIB through an update"),
        (Up, RibAbsent, Down, ClearTable,
            "cannot occur: Up is never a mid-RIB state"),
        (UpRibApplication, RibAbsent, Down, ClearTable,
            "footnote 5: a VP with no row in the dump died silently; its table goes"),
        (Down, CorruptUpdate, Down, Keep,
            "E3 on a down VP, outside a RIB or again mid-RIB"),
        (DownRibApplication, CorruptUpdate, Down, Keep,
            "E3 mid-RIB sets Down, not DownRibApplication"),
        (Up, CorruptUpdate, Down, Keep,
            "E3: updates stop until the next clean dump; the table stays for the dump to check"),
        (UpRibApplication, CorruptUpdate, Down, Keep,
            "E3 mid-RIB sets Down, not DownRibApplication"),
        (Down, SessionUp, Up, Keep,
            "E4 up outside a RIB; mid-RIB after E3 the VP then rejoins the dump"),
        (DownRibApplication, SessionUp, Up, Keep,
            "E4 up mid-RIB; the VP then rejoins the dump as UpRibApplication"),
        (Up, SessionUp, Up, Keep,
            "E4: a repeated Established message changes nothing"),
        (UpRibApplication, SessionUp, Up, Keep,
            "E4 up mid-RIB; the VP then rejoins the dump as UpRibApplication"),
        (Down, SessionDown, Down, ClearTable,
            "E4 down on a down VP: whatever updates built since goes"),
        (DownRibApplication, SessionDown, Down, ClearTable,
            "E4 down mid-RIB; the VP then rejoins the dump as DownRibApplication"),
        (Up, SessionDown, Down, ClearTable,
            "E4 down: the session is lost, the table is no longer trustworthy"),
        (UpRibApplication, SessionDown, Down, ClearTable,
            "E4 down mid-RIB; the VP then rejoins the dump as DownRibApplication"),
    ];

    #[test]
    fn step_follows_the_table_for_every_state_and_event() {
        for state in STATES {
            for event in EVENTS {
                let rows: Vec<_> = TABLE
                    .iter()
                    .filter(|row| (row.0, row.1) == (state, event))
                    .collect();
                assert_eq!(rows.len(), 1, "{state:?} x {event:?}: one row each");
                let (_, _, next, action, why) = rows[0];
                assert_eq!(step(state, event), (*next, *action), "{why}");
            }
        }
    }

    #[test]
    fn checkpoint_codes_round_trip_and_stop_at_four() {
        for (code, state) in STATES.iter().enumerate() {
            assert_eq!(state.code(), code as u8);
            assert_eq!(MacroState::from_code(code as u8), Some(*state));
        }
        assert_eq!(MacroState::from_code(4), None);
    }
}
