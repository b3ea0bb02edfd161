//! A snapshot-isolated, thread-safe alias-query service: many named
//! tenants ("modules"), each backed by an incremental
//! [`AnalysisSession`], serving concurrent readers while a per-tenant
//! writer applies edits.
//!
//! # The tenant/epoch/snapshot contract
//!
//! Each tenant owns a monotone **epoch** counter. Epoch 0 is the
//! snapshot published when the tenant is added; every applied edit
//! bumps the epoch by exactly one and publishes a fresh immutable
//! [`Arc<EpochSnapshot>`](EpochSnapshot). A snapshot is self-contained
//! (module + assembled analysis + all-pairs matrices, `Arc`-shared
//! with the session via [`AnalysisSession::freeze`]) and answers
//! queries without ever touching the live session, so:
//!
//! * **readers never block on edits** — [`AliasService::snapshot`]
//!   briefly takes a lock that writers hold only for the O(1) pointer
//!   swap of a publish, *never* during the (possibly long) re-analysis
//!   of an edit. A reader that grabbed a snapshot holds plain
//!   immutable data;
//! * **readers never see a half-applied epoch** — a snapshot is frozen
//!   *after* the session's rebuild completes, and publication replaces
//!   the whole `Arc` atomically under the lock; there is no state in
//!   between two epochs to observe;
//! * **epochs are monotone per tenant** — the writer mutex serializes
//!   edits, and each publish carries the next counter value, so any
//!   single reader observes non-decreasing epochs;
//! * **a slow reader never starves writers** — a reader holds only its
//!   own `Arc` clone of a snapshot; writers publish later epochs
//!   regardless, and the superseded snapshot's memory (matrices,
//!   arenas) is freed when its last reader drops it.
//!
//! # Examples
//!
//! ```
//! use sra_core::service::AliasService;
//! use sra_core::AliasResult;
//! use sra_ir::{FunctionBuilder, Module};
//!
//! let mut b = FunctionBuilder::new("f", &[], None);
//! let ten = b.const_int(10);
//! let p = b.malloc(ten);
//! let q = b.malloc(ten);
//! b.ret(None);
//! let mut m = Module::new();
//! let fid = m.add_function(b.finish());
//!
//! let service = AliasService::new();
//! service.add_tenant("app", m).unwrap();
//! let snap = service.snapshot("app").unwrap();
//! assert_eq!(snap.epoch(), 0);
//! assert_eq!(snap.alias_with_test(fid, p, q).0, AliasResult::NoAlias);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, RwLock};

use sra_ir::{FuncId, Function, Module, ValueId};
use sra_lang::{CompileError, SourceProgram};

use crate::config::AnalysisConfig;
use crate::persist::{self, corrupt, PersistError};
use crate::query::{AliasResult, QueryMode, WhichTest};
use crate::session::{AnalysisSession, FrozenAnalysis, SessionEdit, SessionError, SessionStats};

/// Why a service call failed. Edit rejections wrap the session's
/// structured error and leave the tenant (and its published snapshot)
/// exactly as they were.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// No tenant is registered under this name.
    NoSuchTenant(String),
    /// [`AliasService::add_tenant`] found the name already taken.
    TenantExists(String),
    /// The tenant's session rejected the edit (or the initial module
    /// failed verification).
    Session(SessionError),
    /// The edited source failed to compile (lex, parse or lowering);
    /// the tenant keeps serving its previous text unchanged.
    Compile(CompileError),
    /// A source edit targeted a tenant that was registered from a
    /// pre-built module ([`AliasService::add_tenant`]) rather than from
    /// text ([`AliasService::add_tenant_source`]).
    NotSourceBacked(String),
    /// A query named a pair the answering epoch's module lacks — e.g.
    /// one taken from an earlier epoch or from another tenant: `v` is
    /// not a value of function `f`, or (with `v` the pair's first
    /// value) `f` is not a function of the module.
    UnknownValue {
        /// The queried function.
        f: FuncId,
        /// The value it lacks.
        v: ValueId,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::NoSuchTenant(n) => write!(f, "no tenant named {n:?}"),
            ServiceError::TenantExists(n) => write!(f, "tenant {n:?} already exists"),
            ServiceError::Session(e) => write!(f, "{e}"),
            ServiceError::Compile(e) => write!(f, "{e}"),
            ServiceError::NotSourceBacked(n) => {
                write!(f, "tenant {n:?} is not source-backed")
            }
            ServiceError::UnknownValue { f: func, v } => {
                write!(f, "the module has no value {v} in function {func}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<SessionError> for ServiceError {
    fn from(e: SessionError) -> Self {
        ServiceError::Session(e)
    }
}

impl From<CompileError> for ServiceError {
    fn from(e: CompileError) -> Self {
        ServiceError::Compile(e)
    }
}

/// One published epoch of one tenant: an epoch number plus the frozen
/// analysis ([`FrozenAnalysis`]) of the module after exactly that many
/// applied edits. Immutable; readers clone the `Arc` and query at
/// leisure while the writer moves on.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    frozen: FrozenAnalysis,
}

impl EpochSnapshot {
    /// How many edits this tenant had applied when the snapshot was
    /// published (epoch 0 = the initial module).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The tenant's module at this epoch.
    pub fn module(&self) -> &Module {
        self.frozen.module()
    }

    /// The frozen analysis backing this epoch.
    pub fn frozen(&self) -> &FrozenAnalysis {
        &self.frozen
    }

    /// Answers one alias query against this epoch — `O(1)` from the
    /// cached matrix, byte-identical to a scratch analysis of
    /// [`EpochSnapshot::module`].
    pub fn alias_with_test(
        &self,
        f: FuncId,
        p: ValueId,
        q: ValueId,
    ) -> (AliasResult, Option<WhichTest>) {
        self.frozen.alias_with_test(f, p, q)
    }

    /// [`EpochSnapshot::alias_with_test`] made total: the pair is
    /// checked against this epoch's module before anything is indexed,
    /// so a pair from an earlier epoch or another tenant is an error,
    /// never a panic.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownValue`] when the module lacks `f`, `p` or
    /// `q`.
    pub fn query(
        &self,
        f: FuncId,
        p: ValueId,
        q: ValueId,
    ) -> Result<(AliasResult, Option<WhichTest>), ServiceError> {
        let m = self.module();
        if f.index() >= m.num_functions() {
            return Err(ServiceError::UnknownValue { f, v: p });
        }
        let values = m.function(f).num_values();
        if let Some(v) = [p, q].into_iter().find(|v| v.index() >= values) {
            return Err(ServiceError::UnknownValue { f, v });
        }
        Ok(self.frozen.alias_with_test(f, p, q))
    }
}

/// One tenant: the writer side (session + epoch counter) behind a
/// mutex that serializes edits, and the published snapshot behind a
/// lock held only for O(1) clone/swap operations.
struct Tenant {
    name: String,
    writer: Mutex<WriterSide>,
    published: RwLock<Arc<EpochSnapshot>>,
}

struct WriterSide {
    session: AnalysisSession,
    epoch: u64,
    /// The current source text + diff state of a source-backed tenant
    /// ([`AliasService::add_tenant_source`]); `None` for tenants
    /// registered from a pre-built module. Kept in lockstep with the
    /// session: an edit commits to both or to neither.
    source: Option<SourceProgram>,
}

impl Tenant {
    fn publish(&self, snap: Arc<EpochSnapshot>) {
        *self.published.write().expect("published lock") = snap;
    }
}

/// The exclusive writer handle of one tenant, obtained through
/// [`AliasService::with_writer`]. Holding it serializes edits to the
/// tenant; each successful edit re-analyzes incrementally, bumps the
/// epoch and publishes a fresh snapshot — readers keep being served
/// from the last published epoch the whole time.
pub struct TenantWriter<'a> {
    tenant: &'a Tenant,
    side: &'a mut WriterSide,
}

impl TenantWriter<'_> {
    /// The epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.side.epoch
    }

    /// The live session under this writer (read-only; edits go through
    /// the publishing methods so every applied edit is also published).
    pub fn session(&self) -> &AnalysisSession {
        &self.side.session
    }

    /// The session's accumulated reuse/recompute counters.
    pub fn stats(&self) -> &SessionStats {
        self.side.session.stats()
    }

    /// Replaces the body of `f`, publishing the next epoch.
    ///
    /// # Errors
    ///
    /// Propagates the session's rejection; nothing is published and
    /// the epoch does not advance.
    pub fn replace_function(&mut self, f: FuncId, body: Function) -> Result<u64, SessionError> {
        self.side.session.replace_function(f, body)?;
        Ok(self.publish_next())
    }

    /// Adds a function, publishing the next epoch.
    ///
    /// # Errors
    ///
    /// Propagates the session's rejection; nothing is published.
    pub fn add_function(&mut self, body: Function) -> Result<(FuncId, u64), SessionError> {
        let f = self.side.session.add_function(body)?;
        Ok((f, self.publish_next()))
    }

    /// Removes function `f`, publishing the next epoch.
    ///
    /// # Errors
    ///
    /// Propagates the session's rejection (e.g. the function is still
    /// called); nothing is published.
    pub fn remove_function(&mut self, f: FuncId) -> Result<(Function, u64), SessionError> {
        let removed = self.side.session.remove_function(f)?;
        Ok((removed, self.publish_next()))
    }

    /// Applies a batch of edits atomically
    /// ([`AnalysisSession::apply_edits`]), publishing **one** epoch for
    /// the whole batch — readers never observe a partially applied
    /// group. Returns the added functions' ids and the published epoch.
    ///
    /// # Errors
    ///
    /// Propagates the session's rejection; nothing is published and
    /// the epoch does not advance.
    pub fn apply_edits(
        &mut self,
        edits: Vec<SessionEdit>,
    ) -> Result<(Vec<FuncId>, u64), SessionError> {
        let added = self.side.session.apply_edits(edits)?;
        Ok((added, self.publish_next()))
    }

    /// The tenant's current source text; `None` for tenants registered
    /// from a pre-built module.
    pub fn source_text(&self) -> Option<&str> {
        self.side.source.as_ref().map(SourceProgram::text)
    }

    /// Replaces the tenant's entire source text: the frontend re-parses
    /// only the span that differs from the current text, re-lowers only
    /// changed units, and the session applies the diff incrementally
    /// — one published epoch per edit, however many functions it
    /// touched. The edit is atomic across text and analysis: on any
    /// error the tenant keeps serving its previous text and snapshot.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NotSourceBacked`] when the tenant was registered
    /// from a pre-built module; [`ServiceError::Compile`] when the new
    /// text does not compile; [`ServiceError::Session`] when the
    /// session rejects the diff.
    pub fn edit_source(&mut self, new_text: &str) -> Result<u64, ServiceError> {
        let Some(program) = self.side.source.as_mut() else {
            return Err(ServiceError::NotSourceBacked(self.tenant.name.clone()));
        };
        // Commit the text only once the session took the diff: a
        // rejected edit (either stage) leaves the registry untouched.
        let edit = program.prepare_edit(new_text)?;
        self.side.session.apply_source_edit(edit.diff().clone())?;
        program.commit(edit);
        Ok(self.publish_next())
    }

    fn publish_next(&mut self) -> u64 {
        self.side.epoch += 1;
        let snap = Arc::new(EpochSnapshot {
            epoch: self.side.epoch,
            frozen: self.side.session.freeze(),
        });
        self.tenant.publish(snap);
        self.side.epoch
    }
}

/// The long-lived, thread-safe alias-query service; see the module
/// docs for the snapshot/epoch contract. `&AliasService` is `Sync`:
/// share it across reader and writer threads freely (e.g. via
/// [`std::thread::scope`] or an `Arc`).
#[derive(Default)]
pub struct AliasService {
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    config: AnalysisConfig,
}

impl AliasService {
    /// An empty service analyzing with the default configuration.
    pub fn new() -> Self {
        Self::with_config(AnalysisConfig::default())
    }

    /// An empty service; every tenant's session analyzes (and answers
    /// queries) per `config`. [`QueryMode::Matrix`] snapshots are
    /// matrix-backed (lock-free `O(1)` lookups); [`QueryMode::Demand`]
    /// snapshots skip every matrix build and memoise single queries on
    /// demand.
    pub fn with_config(config: impl Into<AnalysisConfig>) -> Self {
        AliasService {
            tenants: RwLock::new(HashMap::new()),
            config: config.into(),
        }
    }

    /// The configuration every tenant analyzes with.
    pub fn config(&self) -> AnalysisConfig {
        self.config
    }

    /// The query mode every tenant answers with.
    pub fn query_mode(&self) -> QueryMode {
        self.config.query_mode
    }

    /// Registers a tenant, analyzes its module and publishes epoch 0.
    ///
    /// # Errors
    ///
    /// [`ServiceError::TenantExists`] when the name is taken;
    /// [`ServiceError::Session`] when the module fails verification.
    pub fn add_tenant(&self, name: &str, module: Module) -> Result<(), ServiceError> {
        self.register(name, module, None)
    }

    /// Registers a **source-backed** tenant: compiles `text` with the
    /// full mini-C pipeline, analyzes it and publishes epoch 0. The
    /// tenant then accepts whole-text updates through
    /// [`AliasService::edit_tenant_source`] /
    /// [`TenantWriter::edit_source`], which re-analyze incrementally at
    /// function granularity.
    ///
    /// # Errors
    ///
    /// [`ServiceError::TenantExists`] when the name is taken;
    /// [`ServiceError::Compile`] when the text does not compile;
    /// [`ServiceError::Session`] when the module fails verification.
    pub fn add_tenant_source(&self, name: &str, text: &str) -> Result<(), ServiceError> {
        let program = SourceProgram::new(text)?;
        let module = program.module().clone();
        self.register(name, module, Some(program))
    }

    fn register(
        &self,
        name: &str,
        module: Module,
        source: Option<SourceProgram>,
    ) -> Result<(), ServiceError> {
        // Build outside the map lock: adding a large tenant must not
        // stall lookups (or other adds) for the duration of a full
        // analysis. The name is re-checked under the lock.
        if self.tenants.read().expect("tenant map").contains_key(name) {
            return Err(ServiceError::TenantExists(name.to_owned()));
        }
        let session = AnalysisSession::with_config(module, self.config)?;
        let snap = Arc::new(EpochSnapshot {
            epoch: 0,
            frozen: session.freeze(),
        });
        let tenant = Arc::new(Tenant {
            name: name.to_owned(),
            writer: Mutex::new(WriterSide {
                session,
                epoch: 0,
                source,
            }),
            published: RwLock::new(snap),
        });
        let mut map = self.tenants.write().expect("tenant map");
        if map.contains_key(name) {
            return Err(ServiceError::TenantExists(name.to_owned()));
        }
        map.insert(name.to_owned(), tenant);
        Ok(())
    }

    /// Unregisters a tenant. Readers holding its snapshots keep them
    /// (a snapshot is self-contained); subsequent lookups fail with
    /// [`ServiceError::NoSuchTenant`]. A writer currently inside
    /// [`AliasService::with_writer`] on this tenant finishes
    /// unaffected — its final publishes simply go to a tenant no
    /// longer reachable by name.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoSuchTenant`] when the name is unknown.
    pub fn remove_tenant(&self, name: &str) -> Result<(), ServiceError> {
        self.tenants
            .write()
            .expect("tenant map")
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ServiceError::NoSuchTenant(name.to_owned()))
    }

    /// The registered tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tenants
            .read()
            .expect("tenant map")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// How many tenants are registered.
    pub fn num_tenants(&self) -> usize {
        self.tenants.read().expect("tenant map").len()
    }

    fn tenant(&self, name: &str) -> Result<Arc<Tenant>, ServiceError> {
        self.tenants
            .read()
            .expect("tenant map")
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::NoSuchTenant(name.to_owned()))
    }

    /// The reader entry point: the tenant's most recently published
    /// snapshot. O(1) — two briefly-held locks (map lookup, `Arc`
    /// clone); never blocks on an in-flight edit, because writers take
    /// the publish lock only for the pointer swap after their
    /// re-analysis already finished.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoSuchTenant`] when the name is unknown.
    pub fn snapshot(&self, name: &str) -> Result<Arc<EpochSnapshot>, ServiceError> {
        let tenant = self.tenant(name)?;
        let snap = tenant.published.read().expect("published lock").clone();
        Ok(snap)
    }

    /// Convenience one-shot query: grabs the tenant's current snapshot
    /// and answers from it ([`EpochSnapshot::query`]), returning the
    /// answering epoch alongside the verdict.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoSuchTenant`] when the name is unknown, and
    /// [`ServiceError::UnknownValue`] when the answering epoch's module
    /// lacks the pair.
    #[allow(clippy::type_complexity)]
    pub fn query(
        &self,
        name: &str,
        f: FuncId,
        p: ValueId,
        q: ValueId,
    ) -> Result<(u64, (AliasResult, Option<WhichTest>)), ServiceError> {
        let snap = self.snapshot(name)?;
        Ok((snap.epoch(), snap.query(f, p, q)?))
    }

    /// Runs `body` with the tenant's exclusive [`TenantWriter`].
    /// Writers to the *same* tenant serialize here; writers to other
    /// tenants and all readers proceed concurrently. Each edit applied
    /// through the writer publishes its own epoch, so readers see
    /// every intermediate state exactly once — there is no "commit at
    /// the end" batching that could make a long closure hide epochs.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NoSuchTenant`] when the name is unknown (the
    /// closure is not run).
    pub fn with_writer<R>(
        &self,
        name: &str,
        body: impl FnOnce(&mut TenantWriter<'_>) -> R,
    ) -> Result<R, ServiceError> {
        let tenant = self.tenant(name)?;
        let mut side = tenant.writer.lock().expect("writer lock");
        let mut writer = TenantWriter {
            tenant: &tenant,
            side: &mut side,
        };
        Ok(body(&mut writer))
    }

    /// Single-edit convenience wrappers over
    /// [`AliasService::with_writer`], returning the published epoch.
    ///
    /// # Errors
    ///
    /// Tenant lookup and session rejections, as
    /// [`ServiceError`].
    pub fn replace_function(
        &self,
        name: &str,
        f: FuncId,
        body: Function,
    ) -> Result<u64, ServiceError> {
        self.with_writer(name, |w| w.replace_function(f, body))?
            .map_err(Into::into)
    }

    /// See [`AliasService::replace_function`].
    ///
    /// # Errors
    ///
    /// Tenant lookup and session rejections, as [`ServiceError`].
    pub fn add_function(&self, name: &str, body: Function) -> Result<(FuncId, u64), ServiceError> {
        self.with_writer(name, |w| w.add_function(body))?
            .map_err(Into::into)
    }

    /// See [`AliasService::replace_function`].
    ///
    /// # Errors
    ///
    /// Tenant lookup and session rejections, as [`ServiceError`].
    pub fn remove_function(&self, name: &str, f: FuncId) -> Result<(Function, u64), ServiceError> {
        self.with_writer(name, |w| w.remove_function(f))?
            .map_err(Into::into)
    }

    /// Atomic batch convenience over [`TenantWriter::apply_edits`]:
    /// one published epoch for the whole group.
    ///
    /// # Errors
    ///
    /// Tenant lookup and session rejections, as [`ServiceError`].
    #[allow(clippy::type_complexity)]
    pub fn apply_edits(
        &self,
        name: &str,
        edits: Vec<SessionEdit>,
    ) -> Result<(Vec<FuncId>, u64), ServiceError> {
        self.with_writer(name, |w| w.apply_edits(edits))?
            .map_err(Into::into)
    }

    /// Whole-text source update convenience over
    /// [`TenantWriter::edit_source`], returning the published epoch.
    ///
    /// # Errors
    ///
    /// Tenant lookup, compile and session rejections, as
    /// [`ServiceError`].
    pub fn edit_tenant_source(&self, name: &str, new_text: &str) -> Result<u64, ServiceError> {
        self.with_writer(name, |w| w.edit_source(new_text))?
    }

    /// Serializes the whole service — its [`AnalysisConfig`] plus, for
    /// every tenant (sorted by name), the tenant's epoch, its source
    /// text and registry order when source-backed, and the full warm
    /// [`AnalysisSession`] snapshot. [`AliasService::restore`]
    /// republishes every tenant's current epoch from such a stream
    /// without re-analyzing anything.
    ///
    /// Each tenant's writer lock is held only while that tenant is
    /// written, so the stream is a consistent per-tenant (not global)
    /// cut: a concurrent edit to a not-yet-saved tenant lands in the
    /// snapshot, one to an already-saved tenant does not.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the writer fails.
    pub fn save<W: std::io::Write>(&self, w: &mut W) -> Result<(), PersistError> {
        persist::write_header(w, &persist::SERVICE_MAGIC)?;
        let mut enc = persist::Enc::new();
        persist::encode_config(&mut enc, &self.config);
        enc.finish_section(w, persist::tag::CONFIG)?;
        // Clone the tenant list out of the map lock: holding the map
        // lock across a (possibly busy) writer lock would stall every
        // lookup for the duration of an in-flight edit.
        let mut tenants: Vec<Arc<Tenant>> = self
            .tenants
            .read()
            .expect("tenant map")
            .values()
            .cloned()
            .collect();
        tenants.sort_by(|a, b| a.name.cmp(&b.name));
        for tenant in tenants {
            let side = tenant.writer.lock().expect("writer lock");
            let mut enc = persist::Enc::new();
            enc.str(&tenant.name);
            enc.u64(side.epoch);
            match &side.source {
                None => enc.bool(false),
                Some(program) => {
                    enc.bool(true);
                    enc.str(program.text());
                    let names = program.unit_names();
                    enc.usize(names.len());
                    for n in &names {
                        enc.str(n);
                    }
                }
            }
            enc.finish_section(w, persist::tag::TENANT)?;
            side.session.save(w)?;
        }
        persist::write_end(w)
    }

    /// Reconstructs a service from a stream written by
    /// [`AliasService::save`]: every tenant comes back at its saved
    /// epoch with its warm session (loaded and validated by
    /// [`AnalysisSession::load`], including the scratch-reanalysis
    /// cross-check when the saved config has
    /// [`AnalysisConfig::load_verify`] set) and its snapshot
    /// republished — a restarted service serves queries without
    /// re-analyzing any module.
    ///
    /// # Errors
    ///
    /// Any [`PersistError`]: damaged framing, a tenant session failing
    /// its own validation, a source-backed tenant whose recompiled
    /// text does not reproduce the saved module, or a tenant whose
    /// embedded config disagrees with the service's.
    pub fn restore<R: std::io::Read>(r: &mut R) -> Result<Self, PersistError> {
        persist::read_header(r, &persist::SERVICE_MAGIC)?;
        let payload = persist::expect_section(r, persist::tag::CONFIG)?;
        let mut dec = persist::Dec::new(&payload);
        let config = persist::decode_config(&mut dec)?;
        dec.finish()?;
        let mut map = HashMap::new();
        loop {
            let (tag, payload) = persist::read_section(r)?;
            if tag == persist::tag::END {
                persist::Dec::new(&payload).finish()?;
                break;
            }
            if tag != persist::tag::TENANT {
                return Err(corrupt(format!(
                    "unexpected section {tag:#x} in service stream"
                )));
            }
            let mut dec = persist::Dec::new(&payload);
            let name = dec.str()?;
            let epoch = dec.u64()?;
            let saved_source = if dec.bool()? {
                let text = dec.str()?;
                let n = dec.len(1)?;
                let mut names = Vec::with_capacity(n);
                for _ in 0..n {
                    names.push(dec.str()?);
                }
                Some((text, names))
            } else {
                None
            };
            dec.finish()?;
            if map.contains_key(&name) {
                return Err(corrupt(format!("duplicate tenant {name:?}")));
            }
            let session = AnalysisSession::load(r)?;
            if session.config() != config {
                return Err(corrupt(format!(
                    "tenant {name:?} was saved under a different configuration"
                )));
            }
            let source = match saved_source {
                None => None,
                Some((text, names)) => {
                    let program = SourceProgram::with_unit_order(&text, &names)
                        .map_err(|e| corrupt(format!("tenant {name:?} source: {e}")))?;
                    if program.module() != session.module() {
                        return Err(corrupt(format!(
                            "tenant {name:?}: recompiled source does not reproduce the saved module"
                        )));
                    }
                    Some(program)
                }
            };
            let snap = Arc::new(EpochSnapshot {
                epoch,
                frozen: session.freeze(),
            });
            let tenant = Arc::new(Tenant {
                name: name.clone(),
                writer: Mutex::new(WriterSide {
                    session,
                    epoch,
                    source,
                }),
                published: RwLock::new(snap),
            });
            map.insert(name, tenant);
        }
        Ok(AliasService {
            tenants: RwLock::new(map),
            config,
        })
    }
}

impl fmt::Debug for AliasService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AliasService")
            .field("tenants", &self.tenant_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sra_ir::{FunctionBuilder, Ty};

    fn two_mallocs() -> (Module, FuncId, ValueId, ValueId) {
        let mut b = FunctionBuilder::new("f", &[], None);
        let ten = b.const_int(10);
        let p = b.malloc(ten);
        let q = b.malloc(ten);
        b.ret(None);
        let mut m = Module::new();
        let fid = m.add_function(b.finish());
        (m, fid, p, q)
    }

    #[test]
    fn tenants_epochs_and_queries() {
        let (m, fid, p, q) = two_mallocs();
        let service = AliasService::new();
        service.add_tenant("a", m.clone()).expect("fresh name");
        assert_eq!(
            service.add_tenant("a", m.clone()),
            Err(ServiceError::TenantExists("a".into()))
        );
        service.add_tenant("b", m).expect("second tenant");
        assert_eq!(service.tenant_names(), ["a", "b"]);

        let snap = service.snapshot("a").expect("registered");
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.alias_with_test(fid, p, q).0, AliasResult::NoAlias);
        let (epoch, verdict) = service.query("a", fid, p, q).expect("registered");
        assert_eq!(epoch, 0);
        assert_eq!(verdict.0, AliasResult::NoAlias);

        // An edit publishes epoch 1; the old snapshot is untouched.
        let mut b = FunctionBuilder::new("g", &[Ty::Ptr], None);
        b.ret(None);
        let (g, epoch) = service.add_function("a", b.finish()).expect("valid add");
        assert_eq!(epoch, 1);
        assert_eq!(snap.epoch(), 0, "published snapshots are immutable");
        assert_eq!(snap.module().num_functions(), 1);
        let newer = service.snapshot("a").expect("registered");
        assert_eq!(newer.epoch(), 1);
        assert_eq!(newer.module().num_functions(), 2);
        // The sibling tenant's epoch is independent.
        assert_eq!(service.snapshot("b").expect("registered").epoch(), 0);

        let (_, epoch) = service.remove_function("a", g).expect("uncalled");
        assert_eq!(epoch, 2);

        service.remove_tenant("b").expect("registered");
        assert_eq!(
            service.snapshot("b").unwrap_err(),
            ServiceError::NoSuchTenant("b".into())
        );
        assert_eq!(service.num_tenants(), 1);
    }

    /// A demand-mode service answers byte-identically to a matrix-mode
    /// one across epochs, without its snapshots carrying matrices.
    #[test]
    fn demand_mode_service_matches_matrix_mode() {
        let (m, fid, p, q) = two_mallocs();
        let matrix = AliasService::new();
        let demand = AliasService::with_config(
            AnalysisConfig::builder()
                .query_mode(QueryMode::Demand)
                .build(),
        );
        assert_eq!(demand.query_mode(), QueryMode::Demand);
        matrix.add_tenant("a", m.clone()).expect("fresh name");
        demand.add_tenant("a", m.clone()).expect("fresh name");

        let check = |want_epoch: u64| {
            let ms = matrix.snapshot("a").expect("registered");
            let ds = demand.snapshot("a").expect("registered");
            assert_eq!(ms.epoch(), want_epoch);
            assert_eq!(ds.epoch(), want_epoch);
            assert_eq!(ds.frozen().query_mode(), QueryMode::Demand);
            let module = ds.module();
            for f in module.func_ids() {
                let ptrs = crate::query::pointer_values(module, f);
                for &a in &ptrs {
                    for &b in &ptrs {
                        assert_eq!(ds.alias_with_test(f, a, b), ms.alias_with_test(f, a, b));
                    }
                }
            }
        };
        check(0);
        assert_eq!(demand.query("a", fid, p, q).expect("registered").0, 0);

        // Edits publish demand-backed epochs just the same.
        let mut b = FunctionBuilder::new("g", &[], None);
        let eight = b.const_int(8);
        let r = b.malloc(eight);
        let _ = b.ptr_add(r, eight);
        b.ret(None);
        let body = b.finish();
        matrix.add_function("a", body.clone()).expect("valid add");
        let (g, epoch) = demand.add_function("a", body).expect("valid add");
        assert_eq!(epoch, 1);
        check(1);
        matrix.remove_function("a", g).expect("uncalled");
        demand.remove_function("a", g).expect("uncalled");
        check(2);
        // The live sessions really never built matrices.
        demand
            .with_writer("a", |w| {
                assert_eq!(w.session().query_mode(), QueryMode::Demand);
                assert_eq!(w.stats().matrices_rebuilt, 0, "{:?}", w.stats());
            })
            .expect("registered");
    }

    #[test]
    fn rejected_edits_do_not_publish() {
        let (m, _, _, _) = two_mallocs();
        let service = AliasService::new();
        service.add_tenant("a", m).expect("fresh name");
        let err = service
            .remove_function("a", FuncId::new(7))
            .expect_err("no such function");
        assert!(matches!(err, ServiceError::Session(_)), "{err}");
        assert_eq!(service.snapshot("a").expect("registered").epoch(), 0);
    }

    /// Source-backed tenants: whole-text edits re-analyze
    /// incrementally, failed edits (compile errors) publish nothing,
    /// and module-backed tenants reject source edits.
    #[test]
    fn source_backed_tenants_edit_by_text() {
        let base = "int helper(ptr p, int n) { int i; i = 0; while (i < n) { p[i] = 7; i = i + 1; } return i; }\n\
             export int main() { ptr a; a = malloc(16); int k; k = helper(a, 16); return k; }\n";
        let service = AliasService::new();
        service.add_tenant_source("app", base).expect("compiles");
        assert_eq!(
            service.add_tenant_source("app", base),
            Err(ServiceError::TenantExists("app".into()))
        );
        let snap = service.snapshot("app").expect("registered");
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.module().num_functions(), 2);

        // A body tweak: one epoch, one function re-analyzed.
        let tweaked = base.replace("p[i] = 7;", "p[i] = 9;");
        let epoch = service
            .edit_tenant_source("app", &tweaked)
            .expect("compiles");
        assert_eq!(epoch, 1);
        service
            .with_writer("app", |w| {
                assert_eq!(w.source_text(), Some(tweaked.as_str()));
                assert_eq!(w.stats().parts_reanalyzed, 1, "{:?}", w.stats());
            })
            .expect("registered");

        // A comment-only edit is a published no-op epoch.
        let commented = format!("// v2\n{tweaked}");
        let epoch = service
            .edit_tenant_source("app", &commented)
            .expect("compiles");
        assert_eq!(epoch, 2);
        service
            .with_writer("app", |w| {
                assert_eq!(w.stats().noop_edits, 1, "{:?}", w.stats());
            })
            .expect("registered");

        // A broken edit publishes nothing and keeps text + snapshot.
        let broken = commented.replace("return k;", "return q;");
        let err = service.edit_tenant_source("app", &broken).unwrap_err();
        assert!(matches!(err, ServiceError::Compile(_)), "{err}");
        assert_eq!(service.snapshot("app").expect("registered").epoch(), 2);
        service
            .with_writer("app", |w| {
                assert_eq!(w.source_text(), Some(commented.as_str()));
            })
            .expect("registered");

        // Module-backed tenants have no text to edit.
        let (m, _, _, _) = two_mallocs();
        service.add_tenant("bin", m).expect("fresh name");
        assert_eq!(
            service.edit_tenant_source("bin", base),
            Err(ServiceError::NotSourceBacked("bin".into()))
        );
        assert_eq!(
            service.edit_tenant_source("ghost", base),
            Err(ServiceError::NoSuchTenant("ghost".into()))
        );
    }

    /// Writer-side batches publish exactly one epoch per group.
    #[test]
    fn batched_edits_publish_one_epoch() {
        let (m, fid, _, _) = two_mallocs();
        let service = AliasService::new();
        service.add_tenant("a", m.clone()).expect("fresh name");
        let mut b = FunctionBuilder::new("g", &[], None);
        b.ret(None);
        let leaf = b.finish();
        let body = m.function(fid).clone();
        let (added, epoch) = service
            .apply_edits(
                "a",
                vec![
                    crate::SessionEdit::Replace { func: fid, body },
                    crate::SessionEdit::Add { body: leaf },
                ],
            )
            .expect("valid batch");
        assert_eq!(epoch, 1);
        assert_eq!(added, vec![FuncId::new(1)]);
        assert_eq!(service.snapshot("a").expect("registered").epoch(), 1);
        assert_eq!(
            service
                .snapshot("a")
                .expect("registered")
                .module()
                .num_functions(),
            2
        );
    }

    #[test]
    fn writer_batches_publish_every_epoch() {
        let (m, fid, _, _) = two_mallocs();
        let service = AliasService::new();
        service.add_tenant("a", m.clone()).expect("fresh name");
        let body = m.function(fid).clone();
        let last = service
            .with_writer("a", |w| {
                let e1 = w.replace_function(fid, body.clone()).expect("no-op ok");
                assert_eq!(e1, 1);
                assert_eq!(w.stats().noop_edits, 1);
                let e2 = w.replace_function(fid, body).expect("no-op ok");
                assert_eq!(e2, 2);
                w.epoch()
            })
            .expect("registered");
        assert_eq!(last, 2);
        assert_eq!(service.snapshot("a").expect("registered").epoch(), 2);
    }

    /// A saved service restores every tenant at its epoch with a warm
    /// session — module-backed and source-backed (whose registry order
    /// has drifted from text order through edits) — answers
    /// identically, stays editable, and re-saves byte-identically.
    #[test]
    fn service_save_restore_roundtrip() {
        let config = AnalysisConfig::builder()
            .threads(1)
            .load_verify(true)
            .build();
        let service = AliasService::with_config(config);

        // Module-backed tenant, edited once (epoch 1).
        let (m, fid, p, q) = two_mallocs();
        service.add_tenant("bin", m).expect("fresh name");
        let mut b = FunctionBuilder::new("g", &[Ty::Ptr], None);
        b.ret(None);
        service.add_function("bin", b.finish()).expect("valid add");

        // Source-backed tenant: inserting `extra` *before* `main` in
        // the text appends it at the highest id, so registry order no
        // longer matches text order — the part restore must preserve.
        let base = "int helper(ptr p, int n) { p[0] = n; return n; }\n\
             export int main() { ptr a; a = malloc(16); int k; k = helper(a, 16); return k; }\n";
        service.add_tenant_source("app", base).expect("compiles");
        let extended = base.replace(
            "export int main",
            "int extra(int x) { return x + 1; }\nexport int main",
        );
        let epoch = service
            .edit_tenant_source("app", &extended)
            .expect("compiles");
        assert_eq!(epoch, 1);

        let mut bytes = Vec::new();
        service.save(&mut bytes).expect("save");
        let restored = AliasService::restore(&mut bytes.as_slice()).expect("restore");

        assert_eq!(restored.config(), config);
        assert_eq!(restored.tenant_names(), ["app", "bin"]);
        assert_eq!(restored.snapshot("bin").expect("restored").epoch(), 1);
        assert_eq!(restored.snapshot("app").expect("restored").epoch(), 1);
        assert_eq!(
            restored.query("bin", fid, p, q).expect("restored"),
            service.query("bin", fid, p, q).expect("registered"),
        );
        restored
            .with_writer("app", |w| {
                assert_eq!(w.source_text(), Some(extended.as_str()));
                // `extra` kept its appended (non-text-order) id.
                assert_eq!(
                    w.session().module().function(FuncId::new(2)).name(),
                    "extra"
                );
            })
            .expect("restored");

        let mut again = Vec::new();
        restored.save(&mut again).expect("save");
        assert_eq!(again, bytes, "restored service re-saves byte-identically");

        // The restored source tenant still accepts incremental edits.
        let tweaked = extended.replace("p[0] = n;", "p[0] = n + 1;");
        let epoch = restored
            .edit_tenant_source("app", &tweaked)
            .expect("still source-backed");
        assert_eq!(epoch, 2);

        // Damage is rejected, never mis-restored: truncation at every
        // framing-sensitive prefix and a flipped tenant byte.
        for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(AliasService::restore(&mut &bytes[..cut]).is_err());
        }
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(AliasService::restore(&mut bad.as_slice()).is_err());
    }
}
