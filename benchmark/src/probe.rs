//! Probes: forwarding wrappers that time every call into a layer's public
//! functions, from outside the layer.
//!
//! [`ProbeDev`] wraps any block device and [`ProbeFs`] wraps any
//! [`SpecificFs`]; both forward every call unchanged and record a span with
//! the shared [`Tracer`]. A span carries the layer it entered, the
//! operation, the block tag, the request it belongs to, its parent span,
//! and start/end on both the host clock and the simulated clock. Spans nest
//! because the calls nest, so a layer's *self time* is its spans' duration
//! minus the duration of the spans opened inside them.
//!
//! One request produces thousands of block-level spans, so spans are folded
//! into one [`LayerFold`] per (request, layer) as they close; only the
//! first [`RAW_SPAN_LIMIT`] are kept whole for inspection.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use iron_blockdev::{BlockDevice, DiskResult, RawAccess};
use iron_core::{Block, BlockAddr, BlockTag};
use iron_vfs::types::Ino;
use iron_vfs::{DirEntry, FsEnv, InodeAttr, SpecificFs, StatFs, VfsResult};

use crate::stack::Clocks;

/// Raw spans kept per traced pass.
pub const RAW_SPAN_LIMIT: usize = 10_000;

/// The layers a span can enter, top to bottom.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `iron_serve::serve` and `Vfs` together (there is no seam between
    /// them: `Vfs` is a concrete struct).
    Serve,
    /// The file system: ext3/ixt3 with its journal and private cache.
    Fs,
    /// `BufferCache` and its elevator.
    Cache,
    /// `RetryLayer`.
    Retry,
    /// `ReplicatedDisk`.
    Cluster,
    /// One `MemDisk` replica.
    Device,
}

impl Layer {
    /// Every layer, top to bottom.
    pub const ALL: [Layer; 6] = [
        Layer::Serve,
        Layer::Fs,
        Layer::Cache,
        Layer::Retry,
        Layer::Cluster,
        Layer::Device,
    ];

    /// The layer's name in metric names and the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Serve => "serve_vfs",
            Layer::Fs => "fs",
            Layer::Cache => "cache",
            Layer::Retry => "retry",
            Layer::Cluster => "cluster",
            Layer::Device => "device",
        }
    }
}

/// One closed span, as kept raw.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id, unique within the pass.
    pub id: u64,
    /// The span this one was opened inside, if any.
    pub parent: Option<u64>,
    /// Index of the request this span served.
    pub request: u64,
    /// The layer entered.
    pub layer: Layer,
    /// Replica index for [`Layer::Device`], 0 elsewhere.
    pub unit: u8,
    /// The function called.
    pub op: &'static str,
    /// Block tag of a block read or write, `""` otherwise.
    pub tag: &'static str,
    /// Host ns since the tracer was made.
    pub host_start_ns: u64,
    /// Host ns since the tracer was made.
    pub host_end_ns: u64,
    /// Simulated ns under the composition rule.
    pub sim_start_ns: u64,
    /// Simulated ns under the composition rule.
    pub sim_end_ns: u64,
}

/// All spans of one layer within one request, folded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerFold {
    /// Spans folded.
    pub calls: u64,
    /// Summed host duration.
    pub host_ns: u64,
    /// Host duration minus the children's.
    pub self_host_ns: u64,
    /// Summed simulated duration.
    pub sim_ns: u64,
    /// Simulated duration minus the children's.
    pub self_sim_ns: u64,
}

impl LayerFold {
    fn add(&mut self, other: &LayerFold) {
        self.calls += other.calls;
        self.host_ns += other.host_ns;
        self.self_host_ns += other.self_host_ns;
        self.sim_ns += other.sim_ns;
        self.self_sim_ns += other.self_sim_ns;
    }
}

/// One traced request: its outermost span and a fold per layer.
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// `Request::name()`.
    pub op: &'static str,
    /// Host duration of the request span.
    pub host_ns: u64,
    /// Simulated duration of the request span.
    pub sim_ns: u64,
    /// Folds indexed like [`Layer::ALL`].
    pub layers: [LayerFold; 6],
}

struct Open {
    id: u64,
    layer: Layer,
    unit: u8,
    op: &'static str,
    tag: &'static str,
    host_start: u64,
    sim_start: u64,
    child_host: u64,
    child_sim: u64,
}

#[derive(Default)]
struct State {
    open: Vec<Open>,
    next_id: u64,
    raw: Vec<Span>,
    current: [LayerFold; 6],
    requests: Vec<RequestRecord>,
}

/// What a traced pass produced.
pub struct TraceLog {
    /// One record per request, in issue order.
    pub requests: Vec<RequestRecord>,
    /// The first [`RAW_SPAN_LIMIT`] spans, in closing order.
    pub raw: Vec<Span>,
}

impl TraceLog {
    /// Folds summed over every request, indexed like [`Layer::ALL`].
    pub fn totals(&self) -> [LayerFold; 6] {
        let mut out = [LayerFold::default(); 6];
        for r in &self.requests {
            for (sum, fold) in out.iter_mut().zip(&r.layers) {
                sum.add(fold);
            }
        }
        out
    }
}

/// The span recorder the probes of one stack share.
///
/// A mutex guards the state although a traced pass issues one request at a
/// time, because the probed file system must stay `Send` for
/// `iron_serve::serve`.
pub struct Tracer {
    epoch: Instant,
    clocks: Clocks,
    /// Off during set-up and unmount, so that only the measured requests
    /// leave spans.
    recording: AtomicBool,
    state: Mutex<State>,
}

impl Tracer {
    /// A tracer reading simulated time from `clocks`.
    pub fn new(clocks: Clocks) -> Self {
        Tracer {
            epoch: Instant::now(),
            clocks,
            recording: AtomicBool::new(false),
            state: Mutex::default(),
        }
    }

    /// Start or stop recording spans. Call it between requests only.
    pub fn record(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    fn now(&self) -> (u64, u64) {
        (self.epoch.elapsed().as_nanos() as u64, self.clocks.sim_ns())
    }

    /// Run `f` inside a span. A span opened while no other is open is a
    /// request span: closing it closes the request's record.
    pub fn span<R>(
        &self,
        layer: Layer,
        unit: u8,
        op: &'static str,
        tag: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.recording.load(Ordering::SeqCst) {
            return f();
        }
        {
            let (host_start, sim_start) = self.now();
            let mut st = self.state.lock().expect("tracer state");
            let id = st.next_id;
            st.next_id += 1;
            st.open.push(Open {
                id,
                layer,
                unit,
                op,
                tag,
                host_start,
                sim_start,
                child_host: 0,
                child_sim: 0,
            });
        }
        let out = f();
        let (host_end, sim_end) = self.now();
        let mut st = self.state.lock().expect("tracer state");
        let o = st.open.pop().expect("span closes after it opened");
        let host = host_end - o.host_start;
        let sim = sim_end - o.sim_start;
        let parent = st.open.last_mut().map(|p| {
            p.child_host += host;
            p.child_sim += sim;
            p.id
        });
        st.current[o.layer as usize].add(&LayerFold {
            calls: 1,
            host_ns: host,
            // Children run strictly inside their parent and both clocks
            // are monotonic, so neither subtraction can underflow.
            self_host_ns: host - o.child_host,
            sim_ns: sim,
            self_sim_ns: sim - o.child_sim,
        });
        let request = st.requests.len() as u64;
        if st.raw.len() < RAW_SPAN_LIMIT {
            st.raw.push(Span {
                id: o.id,
                parent,
                request,
                layer: o.layer,
                unit: o.unit,
                op: o.op,
                tag: o.tag,
                host_start_ns: o.host_start,
                host_end_ns: host_end,
                sim_start_ns: o.sim_start,
                sim_end_ns: sim_end,
            });
        }
        if parent.is_none() {
            let layers = std::mem::take(&mut st.current);
            st.requests.push(RequestRecord {
                op: o.op,
                host_ns: host,
                sim_ns: sim,
                layers,
            });
        }
        out
    }

    /// Take everything recorded so far.
    pub fn take(&self) -> TraceLog {
        let mut st = self.state.lock().expect("tracer state");
        TraceLog {
            requests: std::mem::take(&mut st.requests),
            raw: std::mem::take(&mut st.raw),
        }
    }
}

/// Calls a [`ProbeDev`] forwarded, by kind. `CacheStats`, `RetryStats`,
/// `ClusterStats` and `DiskStats` count the lower boundaries; this counts
/// the one boundary that has no public counters, file system → cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DevIo {
    /// `read_tagged` calls.
    pub reads: u64,
    /// `write_tagged` calls.
    pub writes: u64,
    /// `barrier` calls.
    pub barriers: u64,
    /// `flush` calls.
    pub flushes: u64,
    /// Writes tagged as journal blocks.
    pub journal_writes: u64,
    /// Writes tagged as checksum-table, replica or parity blocks.
    pub redundancy_writes: u64,
}

impl DevIo {
    /// The calls since `before`.
    pub fn since(self, before: DevIo) -> DevIo {
        DevIo {
            reads: self.reads - before.reads,
            writes: self.writes - before.writes,
            barriers: self.barriers - before.barriers,
            flushes: self.flushes - before.flushes,
            journal_writes: self.journal_writes - before.journal_writes,
            redundancy_writes: self.redundancy_writes - before.redundancy_writes,
        }
    }
}

/// A block device that forwards to `D` and records a span per call.
pub struct ProbeDev<D> {
    inner: D,
    tracer: Arc<Tracer>,
    layer: Layer,
    unit: u8,
    io: DevIo,
}

impl<D> ProbeDev<D> {
    /// Probe calls into `inner`, which is the top of `layer`.
    pub fn new(inner: D, tracer: Arc<Tracer>, layer: Layer, unit: u8) -> Self {
        ProbeDev {
            inner,
            tracer,
            layer,
            unit,
            io: DevIo::default(),
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The calls forwarded so far.
    pub fn io(&self) -> DevIo {
        self.io
    }
}

impl<D: BlockDevice> BlockDevice for ProbeDev<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_tagged(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Block> {
        self.io.reads += 1;
        self.tracer.span(self.layer, self.unit, "read", tag.0, || {
            self.inner.read_tagged(addr, tag)
        })
    }

    fn write_tagged(&mut self, addr: BlockAddr, block: &Block, tag: BlockTag) -> DiskResult<()> {
        self.io.writes += 1;
        match tag.0 {
            "j-super" | "j-revoke" | "j-desc" | "j-commit" | "j-data" => {
                self.io.journal_writes += 1
            }
            "cksum" | "m-replica" | "d-parity" => self.io.redundancy_writes += 1,
            _ => {}
        }
        self.tracer.span(self.layer, self.unit, "write", tag.0, || {
            self.inner.write_tagged(addr, block, tag)
        })
    }

    fn barrier(&mut self) -> DiskResult<()> {
        self.io.barriers += 1;
        self.tracer.span(self.layer, self.unit, "barrier", "", || {
            self.inner.barrier()
        })
    }

    fn flush(&mut self) -> DiskResult<()> {
        self.io.flushes += 1;
        self.tracer
            .span(self.layer, self.unit, "flush", "", || self.inner.flush())
    }

    fn readahead(&mut self, start: BlockAddr, len: u64) {
        self.inner.readahead(start, len);
    }
}

impl<D: RawAccess> RawAccess for ProbeDev<D> {
    fn peek(&self, addr: BlockAddr) -> Block {
        self.inner.peek(addr)
    }

    fn poke(&mut self, addr: BlockAddr, block: &Block) {
        self.inner.poke(addr, block)
    }
}

/// A file system that forwards to `F` and records a span per call.
pub struct ProbeFs<F> {
    inner: F,
    tracer: Arc<Tracer>,
}

impl<F> ProbeFs<F> {
    /// Probe calls into `inner`.
    pub fn new(inner: F, tracer: Arc<Tracer>) -> Self {
        ProbeFs { inner, tracer }
    }

    /// The wrapped file system.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// Unwrap the file system.
    pub fn into_inner(self) -> F {
        self.inner
    }
}

impl<F: SpecificFs> ProbeFs<F> {
    fn span<R>(&mut self, op: &'static str, f: impl FnOnce(&mut F) -> R) -> R {
        let inner = &mut self.inner;
        self.tracer.span(Layer::Fs, 0, op, "", || f(inner))
    }
}

impl<F: SpecificFs> SpecificFs for ProbeFs<F> {
    fn env(&self) -> &FsEnv {
        self.inner.env()
    }
    fn root_ino(&self) -> Ino {
        self.inner.root_ino()
    }
    fn lookup(&mut self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.span("lookup", |fs| fs.lookup(dir, name))
    }
    fn getattr(&mut self, ino: Ino) -> VfsResult<InodeAttr> {
        self.span("getattr", |fs| fs.getattr(ino))
    }
    fn chmod(&mut self, ino: Ino, mode: u32) -> VfsResult<()> {
        self.span("chmod", |fs| fs.chmod(ino, mode))
    }
    fn chown(&mut self, ino: Ino, uid: u32, gid: u32) -> VfsResult<()> {
        self.span("chown", |fs| fs.chown(ino, uid, gid))
    }
    fn utimes(&mut self, ino: Ino, mtime: u64) -> VfsResult<()> {
        self.span("utimes", |fs| fs.utimes(ino, mtime))
    }
    fn create(&mut self, dir: Ino, name: &str, mode: u32) -> VfsResult<Ino> {
        self.span("create", |fs| fs.create(dir, name, mode))
    }
    fn mkdir(&mut self, dir: Ino, name: &str, mode: u32) -> VfsResult<Ino> {
        self.span("mkdir", |fs| fs.mkdir(dir, name, mode))
    }
    fn unlink(&mut self, dir: Ino, name: &str) -> VfsResult<()> {
        self.span("unlink", |fs| fs.unlink(dir, name))
    }
    fn rmdir(&mut self, dir: Ino, name: &str) -> VfsResult<()> {
        self.span("rmdir", |fs| fs.rmdir(dir, name))
    }
    fn link(&mut self, ino: Ino, dir: Ino, name: &str) -> VfsResult<()> {
        self.span("link", |fs| fs.link(ino, dir, name))
    }
    fn symlink(&mut self, dir: Ino, name: &str, target: &str) -> VfsResult<Ino> {
        self.span("symlink", |fs| fs.symlink(dir, name, target))
    }
    fn readlink(&mut self, ino: Ino) -> VfsResult<String> {
        self.span("readlink", |fs| fs.readlink(ino))
    }
    fn rename(
        &mut self,
        src_dir: Ino,
        src_name: &str,
        dst_dir: Ino,
        dst_name: &str,
    ) -> VfsResult<()> {
        self.span("rename", |fs| {
            fs.rename(src_dir, src_name, dst_dir, dst_name)
        })
    }
    fn read(&mut self, ino: Ino, off: u64, len: usize) -> VfsResult<Vec<u8>> {
        self.span("read", |fs| fs.read(ino, off, len))
    }
    fn write(&mut self, ino: Ino, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.span("write", |fs| fs.write(ino, off, data))
    }
    fn truncate(&mut self, ino: Ino, size: u64) -> VfsResult<()> {
        self.span("truncate", |fs| fs.truncate(ino, size))
    }
    fn readdir(&mut self, dir: Ino) -> VfsResult<Vec<DirEntry>> {
        self.span("readdir", |fs| fs.readdir(dir))
    }
    fn fsync(&mut self, ino: Ino) -> VfsResult<()> {
        self.span("fsync", |fs| fs.fsync(ino))
    }
    fn sync(&mut self) -> VfsResult<()> {
        self.span("sync", |fs| fs.sync())
    }
    fn statfs(&mut self) -> VfsResult<StatFs> {
        self.span("statfs", |fs| fs.statfs())
    }
    fn unmount(&mut self) -> VfsResult<()> {
        self.span("unmount", |fs| fs.unmount())
    }
}
