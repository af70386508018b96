//! Seeded request-stream generators for the four serve-path workloads, with
//! the shadow content model that says what every reply must be.
//!
//! A generator is a pure function of the seed: it returns the files to
//! create before measuring, the `iron_serve::Request` stream of each
//! client, and one [`Expect`] per request. No request can fail: every path
//! a request names exists when it runs, in any interleaving of the clients.
//!
//! Operation counts and file sizes are *stratified*: each kind of
//! transaction occurs a fixed number of times and only the order, the
//! targets and the sizes are drawn from the seed. Two seeds therefore do
//! the same amount of work, which keeps the spread between seeds small.

use std::collections::HashMap;

use iron_serve::{digest, payload, Reply, Request, Response, Session};
use iron_testkit::Rng;

use crate::stack::FsKind;

const BLOCK: usize = 4096;
const MODE: u32 = 0o644;
// One salt per workload, so that the same seed draws unrelated streams.
const SALT_POSTMARK: u64 = 0x706f_7374_6d61_726b;
const SALT_TPCB: u64 = 0x7470_6362_7470_6362;
const SALT_WEBREAD: u64 = 0x7765_6272_6561_6421;
const SALT_MULTICLIENT: u64 = 0x006d_756c_7469_636c;

/// A file or directory that exists before the measured phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Prep {
    /// `mkdir path`.
    Dir(String),
    /// Write `payload(seed, len)` to a new file at `path`.
    File {
        /// Absolute path.
        path: String,
        /// Payload seed.
        seed: u64,
        /// Payload length.
        len: usize,
    },
}

/// What the reply to one request must be.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Any `Ok` reply.
    Ok,
    /// `Reply::Data` of this length; the digest is `None` where it depends
    /// on how two clients interleave (the serial replay checks those).
    Data {
        /// Bytes read.
        len: usize,
        /// FNV-1a digest of the bytes, from the shadow model.
        digest: Option<u64>,
    },
    /// `Reply::Written` of this many bytes.
    Written(usize),
    /// `Reply::Attr` of a file this large.
    Size(u64),
}

impl Expect {
    /// Does `resp` meet this expectation?
    pub fn met_by(&self, resp: &Response) -> bool {
        match (self, resp) {
            (Expect::Ok, Ok(_)) => true,
            (Expect::Data { len, digest }, Ok(Reply::Data { len: l, digest: d })) => {
                len == l && digest.is_none_or(|want| want == *d)
            }
            (Expect::Written(n), Ok(Reply::Written { n: got })) => n == got,
            (Expect::Size(size), Ok(Reply::Attr(attr))) => *size == attr.size,
            _ => false,
        }
    }
}

/// One generated workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// The file system to mount.
    pub fs: FsKind,
    /// Serve threads (the closed loop's client count).
    pub threads: usize,
    /// Directories and files to create, in order, before measuring.
    pub prep: Vec<Prep>,
    /// One request stream per client.
    pub sessions: Vec<Session>,
    /// `expect[session][index]` for `sessions[session].requests[index]`.
    pub expect: Vec<Vec<Expect>>,
}

impl Plan {
    /// Requests in the measured phase.
    pub fn ops(&self) -> usize {
        self.sessions.iter().map(|s| s.requests.len()).sum()
    }

    fn requests(&self) -> impl Iterator<Item = &Request> {
        self.sessions.iter().flat_map(|s| &s.requests)
    }

    /// Bytes the clients write in the measured phase.
    pub fn user_bytes_written(&self) -> u64 {
        self.requests()
            .map(|r| match r {
                Request::Write { len, .. } => *len as u64,
                _ => 0,
            })
            .sum()
    }

    /// Bytes the clients read in the measured phase.
    pub fn user_bytes_read(&self) -> u64 {
        self.expect
            .iter()
            .flatten()
            .map(|e| match e {
                Expect::Data { len, .. } => *len as u64,
                _ => 0,
            })
            .sum()
    }
}

/// The shadow content model: what each file holds, byte for byte.
#[derive(Default)]
struct Shadow {
    /// Content and, while no write has touched it, its whole-file digest.
    files: HashMap<String, (Vec<u8>, Option<u64>)>,
}

impl Shadow {
    fn write(&mut self, path: &str, off: usize, seed: u64, len: usize) {
        let (data, whole) = self.files.entry(path.to_string()).or_default();
        if data.len() < off + len {
            data.resize(off + len, 0);
        }
        data[off..off + len].copy_from_slice(&payload(seed, len));
        *whole = None;
    }

    fn len(&self, path: &str) -> usize {
        self.files[path].0.len()
    }

    fn whole_digest(&mut self, path: &str) -> (usize, u64) {
        let (data, whole) = self.files.get_mut(path).expect("file in the shadow model");
        (data.len(), *whole.get_or_insert_with(|| digest(data)))
    }

    fn range_digest(&self, path: &str, off: usize, len: usize) -> u64 {
        digest(&self.files[path].0[off..off + len])
    }
}

/// Builds one client's stream against a shadow model.
#[derive(Default)]
struct Stream {
    shadow: Shadow,
    prep: Vec<Prep>,
    requests: Vec<Request>,
    expect: Vec<Expect>,
}

impl Stream {
    fn push(&mut self, request: Request, expect: Expect) {
        self.requests.push(request);
        self.expect.push(expect);
    }

    fn prep_dir(&mut self, path: String) {
        self.prep.push(Prep::Dir(path));
    }

    fn prep_file(&mut self, path: &str, seed: u64, len: usize) {
        self.shadow.write(path, 0, seed, len);
        self.prep.push(Prep::File {
            path: path.to_string(),
            seed,
            len,
        });
    }

    fn write(&mut self, path: &str, off: usize, seed: u64, len: usize) {
        self.shadow.write(path, off, seed, len);
        self.push(
            Request::Write {
                path: path.to_string(),
                off: off as u64,
                len,
                seed,
            },
            Expect::Written(len),
        );
    }

    fn create(&mut self, path: &str, seed: u64, len: usize) {
        self.push(
            Request::Create {
                path: path.to_string(),
                mode: MODE,
            },
            Expect::Ok,
        );
        self.write(path, 0, seed, len);
    }

    fn append(&mut self, path: &str, seed: u64, len: usize) {
        self.write(path, self.shadow.len(path), seed, len);
    }

    fn unlink(&mut self, path: &str) {
        self.shadow.files.remove(path);
        self.push(
            Request::Unlink {
                path: path.to_string(),
            },
            Expect::Ok,
        );
    }

    fn read_whole(&mut self, path: &str) {
        let (len, digest) = self.shadow.whole_digest(path);
        self.push(
            Request::Read {
                path: path.to_string(),
                off: 0,
                len,
            },
            Expect::Data {
                len,
                digest: Some(digest),
            },
        );
    }

    fn read(&mut self, path: &str, off: usize, len: usize) {
        let digest = self.shadow.range_digest(path, off, len);
        self.push(
            Request::Read {
                path: path.to_string(),
                off: off as u64,
                len,
            },
            Expect::Data {
                len,
                digest: Some(digest),
            },
        );
    }

    fn stat(&mut self, path: &str) {
        let size = self.shadow.len(path) as u64;
        self.push(
            Request::Stat {
                path: path.to_string(),
            },
            Expect::Size(size),
        );
    }

    fn fsync(&mut self, path: &str) {
        self.push(
            Request::Fsync {
                path: path.to_string(),
            },
            Expect::Ok,
        );
    }

    fn sync(&mut self) {
        self.push(Request::Sync, Expect::Ok);
    }
}

fn plan(fs: FsKind, threads: usize, prep: Vec<Prep>, streams: Vec<Stream>) -> Plan {
    let mut sessions = Vec::new();
    let mut expect = Vec::new();
    for (id, s) in streams.into_iter().enumerate() {
        sessions.push(Session {
            id,
            requests: s.requests,
        });
        expect.push(s.expect);
    }
    Plan {
        fs,
        threads,
        prep,
        sessions,
        expect,
    }
}

/// `n` file sizes spread evenly over 4–64 KiB, in seeded order.
fn sizes(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut out: Vec<usize> = (0..n)
        .map(|i| BLOCK + (i * 14 * BLOCK) / n.max(1) + rng.below(BLOCK as u64) as usize)
        .collect();
    rng.shuffle(&mut out);
    out
}

/// PostMark's four transactions.
#[derive(Clone, Copy)]
enum Txn {
    Create,
    Delete,
    Read,
    Append,
}

/// `rounds` rounds of the four transactions, each round in seeded order.
/// A round creates one file and deletes one, so the pool keeps its size
/// and the working set stays where the workload's "why" puts it relative
/// to the caches, whatever the seed.
fn shuffled_txns(rng: &mut Rng, rounds: usize) -> Vec<Txn> {
    let mut txns = Vec::with_capacity(4 * rounds);
    for _ in 0..rounds {
        let mut round = [Txn::Create, Txn::Delete, Txn::Read, Txn::Append];
        rng.shuffle(&mut round);
        txns.extend(round);
    }
    txns
}

/// A PostMark file pool under `root`: `dirs` subdirectories and `initial`
/// files of 4–64 KiB, then `per_kind` each of create, delete, whole-file
/// read and 4 KiB append.
struct PostMark {
    root: String,
    dirs: usize,
    files: Vec<String>,
    serial: u64,
    create_sizes: Vec<usize>,
    /// Follow every append with an `Fsync` of the file, as a mail server
    /// does on delivery.
    fsync_appends: bool,
}

impl PostMark {
    fn new(s: &mut Stream, rng: &mut Rng, root: &str, dirs: usize, initial: usize) -> Self {
        let mut pm = PostMark {
            root: root.to_string(),
            dirs,
            files: Vec::new(),
            serial: 0,
            create_sizes: Vec::new(),
            fsync_appends: false,
        };
        for d in 0..dirs {
            s.prep_dir(format!("{root}/d{d}"));
        }
        for len in sizes(rng, initial) {
            let path = pm.fresh_path(rng);
            s.prep_file(&path, rng.next_u64(), len);
            pm.files.push(path);
        }
        pm
    }

    fn fresh_path(&mut self, rng: &mut Rng) -> String {
        self.serial += 1;
        let d = rng.below(self.dirs as u64);
        format!("{}/d{d}/f{}", self.root, self.serial)
    }

    fn pick(&self, rng: &mut Rng) -> usize {
        rng.below(self.files.len() as u64) as usize
    }

    fn txn(&mut self, s: &mut Stream, rng: &mut Rng, kind: Txn) {
        match kind {
            // A round deletes at most one file before it creates one, so
            // the pool never drops below its initial size less one.
            Txn::Delete => {
                let path = self.files.swap_remove(self.pick(rng));
                s.unlink(&path);
            }
            Txn::Create => {
                let path = self.fresh_path(rng);
                let len = self.create_sizes.pop().expect("one size per create");
                s.create(&path, rng.next_u64(), len);
                self.files.push(path);
            }
            Txn::Read => s.read_whole(&self.files[self.pick(rng)]),
            Txn::Append => {
                let path = &self.files[self.pick(rng)];
                s.append(path, rng.next_u64(), BLOCK);
                if self.fsync_appends {
                    s.fsync(path);
                }
            }
        }
    }
}

/// Transactions of each kind in `postmark` (×4 transactions, ≈5 requests
/// per 4 transactions).
const POSTMARK_PER_KIND: usize = 3000;

/// PostMark on ixt3: 10 directories, 500 initial files of 4–64 KiB, then
/// equal numbers of create, delete, whole-file read and 4 KiB append in
/// seeded order, and a trailing `Sync`.
pub fn postmark(seed: u64) -> Plan {
    let mut rng = Rng::from_seed(seed ^ SALT_POSTMARK);
    let mut s = Stream::default();
    let mut pm = PostMark::new(&mut s, &mut rng, "/pm", 10, 500);
    pm.create_sizes = sizes(&mut rng, POSTMARK_PER_KIND);
    for kind in shuffled_txns(&mut rng, POSTMARK_PER_KIND) {
        pm.txn(&mut s, &mut rng, kind);
    }
    s.sync();
    let mut prep = vec![Prep::Dir("/pm".into())];
    prep.append(&mut s.prep);
    plan(FsKind::Ixt3, 1, prep, vec![s])
}

const TPCB_ACCOUNT_PAGES: usize = 1024;
const TPCB_BRANCHES: usize = 16;
const TPCB_TXNS: usize = 1200;

/// TPC-B on ixt3: 4 MiB of accounts, 64 KiB of branches and an
/// append-only history. Each transaction reads and rewrites one account
/// page and one 64-byte branch record, appends 100 bytes of history and
/// fsyncs it.
pub fn tpcb(seed: u64) -> Plan {
    let mut rng = Rng::from_seed(seed ^ SALT_TPCB);
    let mut s = Stream::default();
    let (accounts, branches, history) = ("/accounts.db", "/branches.db", "/history.log");
    s.prep_file(accounts, rng.next_u64(), TPCB_ACCOUNT_PAGES * BLOCK);
    s.prep_file(branches, rng.next_u64(), TPCB_BRANCHES * BLOCK);
    s.prep_file(history, 0, 0);
    for _ in 0..TPCB_TXNS {
        let page = rng.below(TPCB_ACCOUNT_PAGES as u64) as usize * BLOCK;
        s.read(accounts, page, BLOCK);
        s.write(accounts, page, rng.next_u64(), BLOCK);
        let branch = rng.below(TPCB_BRANCHES as u64) as usize * BLOCK;
        s.read(branches, branch, 64);
        s.write(branches, branch, rng.next_u64(), 64);
        s.append(history, rng.next_u64(), 100);
        s.fsync(history);
    }
    let prep = std::mem::take(&mut s.prep);
    plan(FsKind::Ixt3, 1, prep, vec![s])
}

const WEB_DIRS: usize = 14;
const WEB_PAGES: usize = 1400;
const WEB_GETS: usize = 8000;

/// Static web serving on stock ext3: 1400 pages of 4–64 KiB (about 48 MB,
/// twice the two caches together). 80 % of GETs go to the hottest 10 % of
/// pages, which fit ext3's private cache. A GET is a `Stat` and a
/// whole-file `Read`.
pub fn webread(seed: u64) -> Plan {
    let mut rng = Rng::from_seed(seed ^ SALT_WEBREAD);
    let mut s = Stream::default();
    let mut prep = vec![Prep::Dir("/www".into())];
    for d in 0..WEB_DIRS {
        prep.push(Prep::Dir(format!("/www/d{d}")));
    }
    let pages: Vec<String> = (0..WEB_PAGES)
        .map(|p| format!("/www/d{}/page{p}.html", p % WEB_DIRS))
        .collect();
    for (path, len) in pages.iter().zip(sizes(&mut rng, WEB_PAGES)) {
        s.prep_file(path, rng.next_u64(), len);
    }
    // Exactly 80 % of the GETs are hot; only their order is drawn.
    let hot_pages = WEB_PAGES / 10;
    let mut hot: Vec<bool> = (0..WEB_GETS).map(|i| i % 5 != 0).collect();
    rng.shuffle(&mut hot);
    for is_hot in hot {
        let page = if is_hot {
            rng.below(hot_pages as u64)
        } else {
            hot_pages as u64 + rng.below((WEB_PAGES - hot_pages) as u64)
        };
        let path = &pages[page as usize];
        s.stat(path);
        s.read_whole(path);
    }
    prep.append(&mut s.prep);
    plan(FsKind::Ext3, 1, prep, vec![s])
}

const MULTI_CLIENTS: usize = 2;
const MULTI_PER_KIND: usize = 1500;
const MULTI_HOT_FILES: usize = 4;
const MULTI_HOT_BLOCKS: usize = 16;

/// Two clients on stock ext3. Each runs a PostMark stream in its own
/// directory, fsyncing after every append as a mail server does on
/// delivery; a fifth of its operations read or overwrite one 4 KiB block
/// of four hot files both clients share. Nothing in the shared namespace
/// is created, removed or resized, so every request succeeds however the
/// two streams interleave. Each stream ends in a `Sync`.
///
/// The fsyncs are what keeps simulated time steady here: it is then made
/// of thousands of journal commits, not of a few cache-pressure storms
/// whose number depends on how the clients happen to interleave.
pub fn multiclient(seed: u64) -> Plan {
    let mut prep = vec![Prep::Dir("/hot".into())];
    let hot: Vec<String> = (0..MULTI_HOT_FILES).map(|h| format!("/hot/h{h}")).collect();
    let mut rng = Rng::from_seed(seed ^ SALT_MULTICLIENT);
    for path in &hot {
        prep.push(Prep::File {
            path: path.clone(),
            seed: rng.next_u64(),
            len: MULTI_HOT_BLOCKS * BLOCK,
        });
    }
    let mut streams = Vec::new();
    for c in 0..MULTI_CLIENTS {
        let mut rng = Rng::from_seed(seed ^ SALT_MULTICLIENT ^ ((c as u64 + 1) << 56));
        let mut s = Stream::default();
        let root = format!("/c{c}");
        prep.push(Prep::Dir(root.clone()));
        let mut pm = PostMark::new(&mut s, &mut rng, &root, 5, 80);
        pm.create_sizes = sizes(&mut rng, MULTI_PER_KIND);
        pm.fsync_appends = true;
        // After every round of four transactions, one operation on a
        // shared hot file: a fifth of what a client does is shared, and
        // reads and overwrites alternate so that their counts are fixed.
        let txns = shuffled_txns(&mut rng, MULTI_PER_KIND);
        for (round, kinds) in txns.chunks(4).enumerate() {
            for &kind in kinds {
                pm.txn(&mut s, &mut rng, kind);
            }
            let path = rng.choose(&hot).clone();
            let off = rng.below(MULTI_HOT_BLOCKS as u64) * BLOCK as u64;
            if round % 2 == 0 {
                let expect = Expect::Data {
                    len: BLOCK,
                    digest: None,
                };
                let len = BLOCK;
                s.push(Request::Read { path, off, len }, expect);
            } else {
                let (len, seed) = (BLOCK, rng.next_u64());
                let write = Request::Write {
                    path,
                    off,
                    len,
                    seed,
                };
                s.push(write, Expect::Written(BLOCK));
            }
        }
        s.sync();
        prep.append(&mut s.prep);
        streams.push(s);
    }
    plan(FsKind::Ext3, MULTI_CLIENTS, prep, streams)
}

/// The serve-path workloads, by name.
pub fn generate(workload: &str, seed: u64) -> Option<Plan> {
    Some(match workload {
        "postmark" => postmark(seed),
        "tpcb" => tpcb(seed),
        "webread" => webread(seed),
        "multiclient" => multiclient(seed),
        _ => return None,
    })
}
