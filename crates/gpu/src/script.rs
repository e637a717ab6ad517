//! Address scripts: what one launch resolved about a sparse structure,
//! kept so that later launches against the same structure only move
//! values (`program.rs`, analysis 7).
//!
//! A script is a pure function of `(Program, I32 arguments, DeviceModel)`:
//! for every executed value-slice access site, in execution order, the
//! element address of each row of lanes, and for every entry into a
//! value-slice dynamic loop its trip count, plus the launch's
//! [`KernelReport`]. The machine writes it as it runs the index slice —
//! the addresses are taken where the cost pass has just bounds-checked
//! them — and the program's value tape (`interp/tape.rs`), which
//! executes the value slice alone, reads it: each of its `GatherRows` /
//! `WriteRows` ops reads the next entry of its site's stream, and each
//! dynamic loop the next word of its own, through a [`Cursor`].
//!
//! Every Execute launch writes one: the tape runs each chunk of instances
//! from the segments the machine just wrote ([`Recorder::unread`]). A
//! scratch recorder then drops them; a recording launch, one machine
//! whatever its thread budget, keeps them for later launches to replay.
//!
//! An entry is a header word (how the rows map onto the site's lanes,
//! how many are stored) and its row bases: listed one word each, or —
//! three words in all — as an arithmetic progression. A trip count is
//! one word.
//!
//! Entries live in three streams, one per execution frequency
//! ([`SiteInfo::level`](crate::program::SiteInfo::level)): what a shard's
//! first instance executes once (stream 0), what a row's first instance
//! executes (stream 1, one segment per row of instances), and the rest
//! (stream 2, one segment per instance). A replaying shard starts each
//! stream at its first instance's segment, so a script is recorded by
//! one machine and replayed at any thread count.

use crate::device::DeviceModel;
use crate::interp::GpuError;
use crate::stats::KernelReport;
use insum_kernel::KernelError;
use insum_tensor::{DType, Tensor, WeakTensor};
use std::sync::{Arc, Mutex};

/// How an entry's rows map onto the site's lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Form {
    /// The site's own `n` rows of `m` lanes (a row run).
    Rows = 0,
    /// Every lane its own row of one element (the per-lane path).
    Lanes = 1,
    /// All lanes one row of consecutive elements (the per-lane path on
    /// `base + arange` under at most a prefix mask).
    OneRow = 2,
}

/// The row bases of one entry; [`INACTIVE`] marks a masked-off row, and
/// rows past the stored ones are masked off too.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Bases<'s> {
    /// `count` active rows at `base + i · stride`.
    Progression {
        base: u32,
        stride: i32,
        count: u32,
    },
    Listed(&'s [u32]),
}

/// One decoded entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry<'s> {
    pub(crate) form: Form,
    /// Active lanes per row, when a column mask cut the row short.
    pub(crate) cols: Option<u32>,
    pub(crate) bases: Bases<'s>,
}

pub(crate) const INACTIVE: u32 = u32::MAX;

// Header word: form in bits 31–30, bit 29 "a progression", bit 28 "a
// `cols` word follows", the stored row count below.
const PROGRESSION: u32 = 1 << 29;
const HAS_COLS: u32 = 1 << 28;
const COUNT_MASK: u32 = HAS_COLS - 1;

/// One stream of entries, cut into segments.
#[derive(Default)]
struct Stream {
    words: Vec<u32>,
    /// Where each segment starts in `words`.
    starts: Vec<u32>,
}

/// The recorded address streams of one launch and its report.
pub(crate) struct Script {
    streams: [Stream; 3],
    pub(crate) report: KernelReport,
}

impl Script {
    /// Heap bytes held (exact: the vectors are shrunk to fit).
    pub(crate) fn bytes(&self) -> usize {
        self.streams
            .iter()
            .map(|s| 4 * (s.words.capacity() + s.starts.capacity()))
            .sum()
    }
}

/// Records a launch's entries as its machine runs the index slice.
pub(crate) struct Recorder {
    streams: [Stream; 3],
    /// Which streams some value site or dynamic loop writes to; the others
    /// stay empty.
    levels: [bool; 3],
    /// Instances the launch runs.
    instances: usize,
    /// What the tape has read is dropped: a launch that keeps no script,
    /// or one whose script grew too long to keep.
    scratch: bool,
    /// The script grew too long to keep: the launch keeps none.
    overflow: bool,
    /// Per stream, the first segment the tape has not read.
    unread: [usize; 3],
}

/// An entry wider than a header can count (2²⁸ rows), a trip count past
/// 2³² − 1 or a segment past 32-bit positions: the tape could not read it
/// back.
fn too_wide() -> GpuError {
    GpuError::Kernel(KernelError(
        "an access or a dynamic loop too wide for an address script".to_string(),
    ))
}

impl Recorder {
    /// A recorder that keeps the whole script of a launch of `instances`,
    /// or — `None`, a scratch recorder — only what the tape has not read.
    pub(crate) fn new(levels: [bool; 3], keep: Option<usize>) -> Recorder {
        Recorder {
            streams: Default::default(),
            levels,
            instances: keep.unwrap_or(0),
            scratch: keep.is_none(),
            overflow: false,
            unread: [0; 3],
        }
    }

    /// Open the next segment of stream `level`.
    pub(crate) fn begin(&mut self, level: usize) -> Result<(), GpuError> {
        if !self.levels[level] {
            return Ok(());
        }
        let stream = &mut self.streams[level];
        // Size the per-instance stream once, from what the first instance
        // took (the paper's formats give every instance the same sites):
        // growing by doubling would copy the script log₂ times and leave
        // the copies' holes in the heap — the peak memory of a recording
        // should be the script.
        match (level, stream.starts.len()) {
            (2, 0) => stream.starts.reserve_exact(self.instances),
            (2, 1) => stream.words.reserve_exact(
                stream
                    .words
                    .len()
                    .saturating_mul(self.instances.saturating_sub(1)),
            ),
            _ => {}
        }
        stream
            .starts
            .push(u32::try_from(stream.words.len()).map_err(|_| too_wide())?);
        Ok(())
    }

    /// Append one entry to stream `level`: the bases `rows` of the rows
    /// `active` says are on (in bounds, so below 2³²). Trailing inactive
    /// rows are dropped. Three or more active rows in arithmetic
    /// progression take three words.
    pub(crate) fn push(
        &mut self,
        level: usize,
        form: Form,
        cols: Option<u32>,
        rows: &[i64],
        active: impl Fn(usize) -> bool,
    ) -> Result<(), GpuError> {
        let count = (0..rows.len()).rposition(&active).map_or(0, |l| l + 1);
        if count as u64 > u64::from(COUNT_MASK) {
            return Err(too_wide());
        }
        let rows = &rows[..count];
        let words = &mut self.streams[level].words;
        let dense = count >= 3 && (0..count).all(&active);
        let stride = dense
            .then(|| {
                let stride = rows[1] - rows[0];
                let regular = rows.windows(2).all(|w| w[1] - w[0] == stride);
                i32::try_from(stride).ok().filter(|_| regular)
            })
            .flatten();
        let flags = ((form as u32) << 30)
            | if stride.is_some() { PROGRESSION } else { 0 }
            | if cols.is_some() { HAS_COLS } else { 0 };
        words.push(flags | count as u32);
        words.extend(cols);
        match stride {
            Some(stride) => words.extend([rows[0] as u32, stride as u32]),
            None => words.extend(rows.iter().enumerate().map(|(i, &row)| {
                if active(i) {
                    row as u32
                } else {
                    INACTIVE
                }
            })),
        }
        Ok(())
    }

    /// Append the trip count of one entry into a dynamic loop to stream
    /// `level`.
    pub(crate) fn push_trips(&mut self, level: usize, trips: i64) -> Result<(), GpuError> {
        let word = u32::try_from(trips.max(0)).map_err(|_| too_wide())?;
        self.streams[level].words.push(word);
        Ok(())
    }

    /// A cursor before the first segment of each stream the tape has not
    /// read: what it runs instances from right after the machine wrote
    /// them.
    pub(crate) fn unread(&self) -> Cursor<'_> {
        Cursor {
            streams: &self.streams,
            pos: [0; 3],
            segment: self.unread,
        }
    }

    /// The tape has read every segment: a scratch recorder drops them. A
    /// kept script past half the 32-bit positions is dropped too, so no
    /// later segment outgrows them; the launch then keeps none.
    pub(crate) fn read(&mut self) {
        for (s, unread) in self.streams.iter_mut().zip(&mut self.unread) {
            if !self.scratch && s.words.len() > u32::MAX as usize / 2 {
                (self.scratch, self.overflow) = (true, true);
            }
            if self.scratch {
                s.words.clear();
                s.starts.clear();
            }
            *unread = s.starts.len();
        }
    }

    /// The script this recording and the launch's `report` make; `None`
    /// when a stream overflowed.
    pub(crate) fn finish(self, report: KernelReport) -> Option<Script> {
        if self.overflow {
            return None;
        }
        let mut streams = self.streams;
        for s in &mut streams {
            s.words.shrink_to_fit();
            s.starts.shrink_to_fit();
        }
        Some(Script { streams, report })
    }
}

/// Reads a script back, one position per stream, segment after segment.
pub(crate) struct Cursor<'s> {
    streams: &'s [Stream; 3],
    pos: [usize; 3],
    /// Per stream, the segment [`Cursor::begin`] moves to next.
    segment: [usize; 3],
}

impl<'s> Cursor<'s> {
    /// A cursor that begins with segment `segment[level]` of each stream.
    pub(crate) fn new(script: &'s Script, segment: [usize; 3]) -> Cursor<'s> {
        Cursor {
            streams: &script.streams,
            pos: [0; 3],
            segment,
        }
    }

    /// Move stream `level` to the start of its next segment. A stream
    /// nothing writes to has no segments and is never read.
    pub(crate) fn begin(&mut self, level: usize) {
        if let Some(&at) = self.streams[level].starts.get(self.segment[level]) {
            self.pos[level] = at as usize;
            self.segment[level] += 1;
        }
    }

    /// The next trip count of stream `level`.
    pub(crate) fn trips(&mut self, level: usize) -> u32 {
        let word = self.streams[level].words[self.pos[level]];
        self.pos[level] += 1;
        word
    }

    /// The next entry of stream `level`.
    pub(crate) fn next(&mut self, level: usize) -> Entry<'s> {
        let words = &self.streams[level].words;
        let pos = &mut self.pos[level];
        let mut take = || {
            let w = words[*pos];
            *pos += 1;
            w
        };
        let header = take();
        let form = match header >> 30 {
            0 => Form::Rows,
            1 => Form::Lanes,
            _ => Form::OneRow,
        };
        let count = header & COUNT_MASK;
        let cols = (header & HAS_COLS != 0).then(&mut take);
        let bases = if header & PROGRESSION != 0 {
            Bases::Progression {
                base: take(),
                stride: take() as i32,
                count,
            }
        } else {
            let at = *pos;
            *pos += count as usize;
            Bases::Listed(&words[at..*pos])
        };
        Entry { form, cols, bases }
    }
}

// ---------------------------------------------------------------------
// The per-program slot
// ---------------------------------------------------------------------

/// What a script is keyed on besides its program: the launch's I32
/// arguments *by storage identity* and the device model by value. The
/// key holds [`WeakTensor`] witnesses, which own nothing — a program
/// keeps no argument alive and costs no owner a copy — and which match
/// only the very storage they were taken from, unwritten: while a witness
/// lives the allocation's address is not reused, and a write (a shared
/// handle's copy or a sole owner's re-homing) presents new storage.
struct Key {
    metadata: Vec<WeakTensor>,
    device: DeviceModel,
}

#[derive(Default)]
struct SlotState {
    /// The key of the last full Execute launch, until something else is
    /// launched: a second sighting in a row is what earns a recording.
    seen: Option<Key>,
    ready: Option<(Key, Arc<Script>)>,
}

/// How one launch should run.
pub(crate) enum Plan {
    Full,
    /// In full, recording; hand the recording to [`ReplaySlot::install`].
    Record(Ticket),
    Replay(Arc<Script>),
}

/// The key a recording launch will install its script under.
pub(crate) struct Ticket(Key);

/// The one script a replayable program keeps, and the policy that fills
/// it: a key's first Execute launch is only remembered, its second in a
/// row records, every later one replays — so one-shot and alternating
/// keys never pay for a recording, and a ready script is displaced only
/// by a key that itself repeats.
pub(crate) struct ReplaySlot {
    /// Positions of the I32 parameters.
    metadata_params: Vec<usize>,
    state: Mutex<SlotState>,
}

impl ReplaySlot {
    pub(crate) fn new(dtypes: &[DType]) -> ReplaySlot {
        ReplaySlot {
            metadata_params: (0..dtypes.len())
                .filter(|&p| dtypes[p] == DType::I32)
                .collect(),
            state: Mutex::default(),
        }
    }

    fn matches(&self, key: &Key, args: &[&mut Tensor], device: &DeviceModel) -> bool {
        self.metadata_params
            .iter()
            .zip(&key.metadata)
            .all(|(&p, held)| held.ptr_eq(args[p]))
            && key.device == *device
    }

    /// Decide how this launch runs. Analytic launches read the slot (a
    /// ready key answers them from the stored report) and never change
    /// it.
    pub(crate) fn plan(&self, args: &[&mut Tensor], device: &DeviceModel, execute: bool) -> Plan {
        let mut state = self
            .state
            .lock()
            .expect("no launch panics holding the slot");
        if let Some((key, script)) = &state.ready {
            if self.matches(key, args, device) {
                let script = Arc::clone(script);
                if execute {
                    state.seen = None;
                }
                return Plan::Replay(script);
            }
        }
        if !execute {
            return Plan::Full;
        }
        match state.seen.take() {
            Some(key) if self.matches(&key, args, device) => Plan::Record(Ticket(key)),
            _ => {
                state.seen = Some(Key {
                    metadata: self
                        .metadata_params
                        .iter()
                        .map(|&p| args[p].downgrade())
                        .collect(),
                    device: device.clone(),
                });
                Plan::Full
            }
        }
    }

    pub(crate) fn install(&self, ticket: Ticket, script: Script) {
        let mut state = self
            .state
            .lock()
            .expect("no launch panics holding the slot");
        state.ready = Some((ticket.0, Arc::new(script)));
    }

    /// Heap bytes of the ready script, if there is one.
    pub(crate) fn script_bytes(&self) -> Option<usize> {
        let state = self
            .state
            .lock()
            .expect("no launch panics holding the slot");
        state.ready.as_ref().map(|(_, script)| script.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> KernelReport {
        KernelReport {
            name: String::new(),
            grid: vec![1],
            stats: Default::default(),
            time: 0.0,
            sm_time: 0.0,
            dram_time: 0.0,
            max_instance_time: 0.0,
        }
    }

    /// Every encoding reads back as what was staged, at its stated size.
    #[test]
    fn entries_round_trip_at_their_stated_sizes() {
        // (staged bases, cols, words)
        let cases: Vec<(Vec<u32>, Option<u32>, usize)> = vec![
            // Progression: three words however many rows.
            (vec![40, 72, 104, 136, 168], None, 3),
            (vec![90, 60, 30], Some(5), 4),
            // Listed: irregular rows, inactive rows inside, trailing ones
            // dropped.
            (vec![67, 115, 115, 19], None, 5),
            (vec![5, INACTIVE, 9, INACTIVE, INACTIVE], None, 4),
            (vec![12, 500], Some(1), 4),
            (vec![INACTIVE, INACTIVE], None, 1),
        ];
        let mut rec = Recorder::new([false, false, true], Some(1));
        rec.begin(2).expect("narrow");
        for (bases, cols, _) in &cases {
            let rows: Vec<i64> = bases.iter().map(|&b| i64::from(b)).collect();
            let on = |i: usize| bases[i] != INACTIVE;
            rec.push(2, Form::Rows, *cols, &rows, on).expect("narrow");
        }
        let script = rec.finish(report()).expect("no overflow");
        assert_eq!(
            script.bytes(),
            4 * (1 + cases.iter().map(|c| c.2).sum::<usize>()),
            "one segment start plus the entries"
        );
        let mut cursor = Cursor::new(&script, [0; 3]);
        cursor.begin(2);
        for (bases, cols, _) in &cases {
            let entry = cursor.next(2);
            assert_eq!(entry.form, Form::Rows);
            assert_eq!(entry.cols, *cols);
            let decoded: Vec<u32> = match entry.bases {
                Bases::Progression {
                    base,
                    stride,
                    count,
                } => (0..count as i64)
                    .map(|i| (i64::from(base) + i * i64::from(stride)) as u32)
                    .collect(),
                Bases::Listed(list) => list.to_vec(),
            };
            let live = bases
                .iter()
                .rposition(|&b| b != INACTIVE)
                .map_or(0, |l| l + 1);
            assert_eq!(decoded, bases[..live]);
        }
    }
}
