//! Copy-on-write columnar fleet storage — million-host fleets at
//! ~one-host cost.
//!
//! [`FleetStore`] holds **one** shared baseline host (the fleet-common
//! image) plus per-domain [`OverlayTable`]s recording only the values
//! that differ from that baseline, with every string interned to a
//! 4-byte [`Sym`]. A pristine host costs nothing beyond its slot; a
//! drifted host costs a handful of overlay entries. Total memory is
//! `O(baseline + total drift)` instead of `O(hosts × config keys)`.
//!
//! Hosts are accessed through [`HostView`] / [`HostViewMut`], which
//! implement the platform-generic [`HostRead`] / [`HostWrite`] traits:
//! every existing STIG check, drift injector, and differ runs
//! unmodified against a store-backed host. Writes reconcile against
//! the baseline — writing a value *back* to its baseline state drops
//! the overlay, so remediation shrinks the store again — and mark the
//! host in a **dirty set** that [`take_dirty`](FleetStore::take_dirty)
//! drains, making per-tick drift detection incremental instead of a
//! full rescan.
//!
//! ```
//! use vdo_host::{FleetConfig, FleetStore, HostRead, HostWrite, Platform};
//!
//! let config = FleetConfig::builder().size(1000).seed(7).build().unwrap();
//! let store = FleetStore::generate(&config);
//! assert_eq!(store.len(), 1000);
//! assert!(store.host(0).is_package_installed("openssh-server"));
//!
//! let mut store = store;
//! store.host_mut(3).install_package("nis", "3.17");
//! assert_eq!(store.take_dirty(), vec![3]);
//! ```

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::columnar::{OverlayTable, BTREE_ENTRY_OVERHEAD};
use crate::drift::DriftInjector;
use crate::fleet::FleetConfig;
use crate::intern::{Interner, Sym};
use crate::unix::{FileMode, HostKey, ServiceState, UnixHost};
use crate::view::{HostRead, HostWrite, Platform};
use crate::windows::{AuditSetting, RegistryValue, WindowsHost};

/// One host's deviation from the baseline package record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackageOverlay {
    version: Sym,
    installed: bool,
}

/// One host's deviation from a baseline account.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AccountOverlay {
    uid: u32,
    locked: bool,
    password_encrypted: bool,
}

/// Interned registry value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegistryOverlay {
    Dword(u32),
    Sz(Sym),
}

/// Host-major account overlay table: per-host iteration must be a
/// range scan (the encrypted-passwords check walks one host's
/// accounts), unlike the key-major tables where per-key host scans
/// dominate.
#[derive(Debug, Clone, Default)]
struct AccountTable {
    map: BTreeMap<(u32, Sym), AccountOverlay>,
}

impl AccountTable {
    fn get(&self, host: u32, name: Sym) -> Option<&AccountOverlay> {
        self.map.get(&(host, name))
    }

    fn set(&mut self, host: u32, name: Sym, v: AccountOverlay) {
        self.map.insert((host, name), v);
    }

    fn clear(&mut self, host: u32, name: Sym) -> bool {
        self.map.remove(&(host, name)).is_some()
    }

    fn for_host(&self, host: u32) -> impl Iterator<Item = (Sym, &AccountOverlay)> + '_ {
        self.map
            .range((host, Sym::MIN)..=(host, Sym::MAX))
            .map(|((_, s), v)| (*s, v))
    }

    fn hosts_any(&self) -> Vec<u32> {
        let mut hosts: Vec<u32> = self.map.keys().map(|(h, _)| *h).collect();
        hosts.dedup(); // host-major keys are already host-sorted
        hosts
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn approx_bytes(&self) -> usize {
        self.map.len()
            * (std::mem::size_of::<(u32, Sym)>()
                + std::mem::size_of::<AccountOverlay>()
                + BTREE_ENTRY_OVERHEAD)
    }
}

/// The shared fleet-common image.
#[derive(Debug, Clone)]
enum Baseline {
    Unix(UnixHost),
    Windows(WindowsHost),
}

/// Memory accounting for a [`FleetStore`], by component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryProfile {
    /// The one shared baseline host.
    pub baseline_bytes: usize,
    /// The string interner (delta vocabulary only).
    pub interner_bytes: usize,
    /// All overlay tables.
    pub overlay_bytes: usize,
    /// Total overlay entries across all domains.
    pub overlay_entries: usize,
    /// The pending dirty set.
    pub dirty_bytes: usize,
    /// Everything above.
    pub total_bytes: usize,
}

impl MemoryProfile {
    /// Amortized bytes per host for a fleet of `hosts`.
    #[must_use]
    pub fn bytes_per_host(&self, hosts: usize) -> f64 {
        if hosts == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.total_bytes as f64 / hosts as f64
            }
        }
    }
}

/// Columnar, copy-on-write storage for a fleet of simulated hosts.
/// See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct FleetStore {
    config: FleetConfig,
    baseline: Baseline,
    interner: Interner,
    drifted: usize,
    packages: OverlayTable<Sym, PackageOverlay>,
    services: OverlayTable<Sym, ServiceState>,
    directives: OverlayTable<(Sym, Sym), Option<Sym>>,
    modes: OverlayTable<Sym, FileMode>,
    accounts: AccountTable,
    kernel: OverlayTable<Sym, Sym>,
    audit: OverlayTable<(Sym, Sym), AuditSetting>,
    registry: OverlayTable<(Sym, Sym), RegistryOverlay>,
    lockout: OverlayTable<(), (u32, u32)>,
    dirty: BTreeSet<u32>,
}

impl FleetStore {
    /// Creates a pristine store: `config.size` hosts, all sharing the
    /// platform baseline, no drift applied.
    ///
    /// # Panics
    ///
    /// Panics if `config.size` exceeds `u32::MAX` hosts.
    #[must_use]
    pub fn pristine(config: &FleetConfig) -> FleetStore {
        assert!(
            u32::try_from(config.size).is_ok(),
            "fleet size exceeds u32 host ids"
        );
        let baseline = match config.platform {
            Platform::Unix => Baseline::Unix(UnixHost::baseline_ubuntu_1804()),
            Platform::Windows => Baseline::Windows(WindowsHost::baseline_win10()),
        };
        FleetStore {
            config: *config,
            baseline,
            interner: Interner::new(),
            drifted: 0,
            packages: OverlayTable::new(),
            services: OverlayTable::new(),
            directives: OverlayTable::new(),
            modes: OverlayTable::new(),
            accounts: AccountTable::default(),
            kernel: OverlayTable::new(),
            audit: OverlayTable::new(),
            registry: OverlayTable::new(),
            lockout: OverlayTable::new(),
            dirty: BTreeSet::new(),
        }
    }

    /// Generates the fleet `config` names; this is the one fleet
    /// generator. A master RNG seeded with `config.seed` flips one coin
    /// per host (`drift_probability`); host `i` drifts with a
    /// [`DriftInjector`] seeded `seed + i + 1`, so equal configs give
    /// equal fleets and each host's drift is independent of the fleet
    /// size (the equivalence property tests pin this against owned
    /// hosts built the same way).
    ///
    /// The dirty set is empty afterwards — generation drift is the
    /// *initial* state, not a change to detect.
    #[must_use]
    pub fn generate(config: &FleetConfig) -> FleetStore {
        let mut store = FleetStore::pristine(config);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut drifted = 0;
        for i in 0..config.size {
            if rng.gen_bool(config.drift_probability) {
                let mut inj = DriftInjector::new(config.seed.wrapping_add(i as u64 + 1));
                inj.drift(
                    &mut store.host_mut(i),
                    config.platform,
                    config.drift_events_per_host,
                );
                drifted += 1;
            }
        }
        store.drifted = drifted;
        store.dirty.clear();
        store
    }

    /// The generating configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The fleet's platform.
    #[must_use]
    pub fn platform(&self) -> Platform {
        self.config.platform
    }

    /// Total host count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.config.size
    }

    /// `true` iff the fleet has no hosts.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.config.size == 0
    }

    /// How many hosts received drift during generation.
    #[must_use]
    pub fn drifted_count(&self) -> usize {
        self.drifted
    }

    /// The shared baseline, if this is a Unix fleet.
    #[must_use]
    pub fn baseline_unix(&self) -> Option<&UnixHost> {
        match &self.baseline {
            Baseline::Unix(h) => Some(h),
            Baseline::Windows(_) => None,
        }
    }

    /// The shared baseline, if this is a Windows fleet.
    #[must_use]
    pub fn baseline_windows(&self) -> Option<&WindowsHost> {
        match &self.baseline {
            Baseline::Windows(h) => Some(h),
            Baseline::Unix(_) => None,
        }
    }

    /// Read view of one host.
    ///
    /// # Panics
    ///
    /// Panics if `host >= len()`.
    #[must_use]
    pub fn host(&self, host: usize) -> HostView<'_> {
        assert!(host < self.config.size, "host {host} out of range");
        HostView {
            store: self,
            host: host_id(host),
        }
    }

    /// Write view of one host; mutations mark it dirty.
    ///
    /// # Panics
    ///
    /// Panics if `host >= len()`.
    #[must_use]
    pub fn host_mut(&mut self, host: usize) -> HostViewMut<'_> {
        assert!(host < self.config.size, "host {host} out of range");
        HostViewMut {
            host: host_id(host),
            store: self,
        }
    }

    /// Hosts mutated since the last call, ascending; clears the set.
    pub fn take_dirty(&mut self) -> Vec<u32> {
        let dirty: Vec<u32> = self.dirty.iter().copied().collect();
        self.dirty.clear();
        dirty
    }

    /// Number of hosts currently marked dirty.
    #[must_use]
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// The hosts holding an overlay on `key`'s slot, ascending: the
    /// hosts where a check reading that key can answer differently from
    /// the baseline. A name the interner has never seen cannot have
    /// overlays.
    #[must_use]
    pub fn hosts_with_override(&self, key: &HostKey<'_>) -> Vec<u32> {
        let sym = |name: &str| self.interner.get(name);
        let hosts = match *key {
            HostKey::Package(name) => sym(name).map(|s| self.packages.hosts_for(s).collect()),
            HostKey::Service(name) => sym(name).map(|s| self.services.hosts_for(s).collect()),
            HostKey::Directive(path, key) => sym(path)
                .zip(sym(&key.to_ascii_lowercase()))
                .map(|pk| self.directives.hosts_for(pk).collect()),
            HostKey::FileMode(path) => sym(path).map(|s| self.modes.hosts_for(s).collect()),
            HostKey::Accounts => Some(self.accounts.hosts_any()),
            HostKey::KernelParam(key) => sym(key).map(|s| self.kernel.hosts_for(s).collect()),
            HostKey::Audit(category, subcategory) => sym(category)
                .zip(sym(subcategory))
                .map(|cs| self.audit.hosts_for(cs).collect()),
            HostKey::Registry(key, name) => sym(key)
                .zip(sym(name))
                .map(|kn| self.registry.hosts_for(kn).collect()),
            HostKey::Lockout => Some(self.lockout.hosts_for(()).collect()),
        };
        hosts.unwrap_or_default()
    }

    /// Total overlay entries across all domains.
    #[must_use]
    pub fn overlay_entries(&self) -> usize {
        self.packages.len()
            + self.services.len()
            + self.directives.len()
            + self.modes.len()
            + self.accounts.len()
            + self.kernel.len()
            + self.audit.len()
            + self.registry.len()
            + self.lockout.len()
    }

    /// Coarse memory accounting; see [`MemoryProfile`].
    #[must_use]
    pub fn memory_profile(&self) -> MemoryProfile {
        let baseline_bytes = match &self.baseline {
            Baseline::Unix(h) => h.approx_bytes(),
            Baseline::Windows(h) => h.approx_bytes(),
        };
        let interner_bytes = self.interner.approx_bytes();
        let overlay_bytes = self.packages.approx_bytes()
            + self.services.approx_bytes()
            + self.directives.approx_bytes()
            + self.modes.approx_bytes()
            + self.accounts.approx_bytes()
            + self.kernel.approx_bytes()
            + self.audit.approx_bytes()
            + self.registry.approx_bytes()
            + self.lockout.approx_bytes();
        let dirty_bytes = self.dirty.len() * (4 + BTREE_ENTRY_OVERHEAD);
        MemoryProfile {
            baseline_bytes,
            interner_bytes,
            overlay_bytes,
            overlay_entries: self.overlay_entries(),
            dirty_bytes,
            total_bytes: baseline_bytes + interner_bytes + overlay_bytes + dirty_bytes,
        }
    }

    /// Reassembles one host as an owned [`UnixHost`]: the way callers
    /// get an owned host, e.g. for the planner, whose catalogue is typed
    /// on the single-host struct. Each call costs O(overlay): it clones
    /// the baseline and scans every overlay table for the host's rows.
    /// Its checks and planner runs match the host's view, though replay
    /// order can make it unequal (`!=`) to a host drifted directly.
    ///
    /// # Panics
    ///
    /// Panics on a Windows fleet or `host >= len()`.
    #[must_use]
    pub fn materialize_unix(&self, host: usize) -> UnixHost {
        assert!(host < self.config.size, "host {host} out of range");
        let h = host_id(host);
        let Baseline::Unix(base) = &self.baseline else {
            panic!("materialize_unix on a windows fleet");
        };
        let mut out = base.clone();
        for (sym, ov) in self.packages.entries_for_host(h) {
            let name = self.interner.resolve(sym);
            out.install_package(name, self.interner.resolve(ov.version));
            if !ov.installed {
                out.remove_package(name);
            }
        }
        for (sym, state) in self.services.entries_for_host(h) {
            out.set_service(self.interner.resolve(sym), *state);
        }
        for ((p, k), v) in self.directives.entries_for_host(h) {
            let path = self.interner.resolve(p);
            let key = self.interner.resolve(k);
            match v {
                Some(vs) => out.write_directive(path, key, self.interner.resolve(*vs)),
                None => {
                    out.remove_directive(path, key);
                }
            }
        }
        for (sym, mode) in self.modes.entries_for_host(h) {
            out.set_file_mode(self.interner.resolve(sym), *mode);
        }
        for (sym, a) in self.accounts.for_host(h) {
            out.add_account(
                self.interner.resolve(sym),
                a.uid,
                a.locked,
                a.password_encrypted,
            );
        }
        for (sym, v) in self.kernel.entries_for_host(h) {
            out.set_kernel_param(self.interner.resolve(sym), self.interner.resolve(*v));
        }
        out
    }

    // ---- shared read path (both view types delegate here) ------------

    fn read_package(&self, host: u32, name: &str) -> Option<(&str, bool)> {
        if let Some(sym) = self.interner.get(name) {
            if let Some(ov) = self.packages.get(sym, host) {
                return Some((self.interner.resolve(ov.version), ov.installed));
            }
        }
        match &self.baseline {
            Baseline::Unix(b) => b.package_state(name),
            Baseline::Windows(_) => None,
        }
    }

    fn read_installed_package_names(&self, host: u32) -> Vec<String> {
        let Baseline::Unix(base) = &self.baseline else {
            return Vec::new();
        };
        let mut set: BTreeSet<String> = base.installed_packages().map(str::to_string).collect();
        for (sym, ov) in self.packages.entries_for_host(host) {
            let name = self.interner.resolve(sym);
            if ov.installed {
                set.insert(name.to_string());
            } else {
                set.remove(name);
            }
        }
        set.into_iter().collect()
    }

    fn read_service(&self, host: u32, name: &str) -> Option<ServiceState> {
        if let Some(sym) = self.interner.get(name) {
            if let Some(state) = self.services.get(sym, host) {
                return Some(*state);
            }
        }
        match &self.baseline {
            Baseline::Unix(b) => b.service(name),
            Baseline::Windows(_) => None,
        }
    }

    fn read_directive(&self, host: u32, path: &str, key: &str) -> Option<&str> {
        if let (Some(p), Some(k)) = (
            self.interner.get(path),
            self.interner.get(&key.to_ascii_lowercase()),
        ) {
            if let Some(v) = self.directives.get((p, k), host) {
                return v.map(|sym| self.interner.resolve(sym));
            }
        }
        match &self.baseline {
            Baseline::Unix(b) => b.directive(path, key),
            Baseline::Windows(_) => None,
        }
    }

    fn read_file_mode(&self, host: u32, path: &str) -> Option<FileMode> {
        if let Some(sym) = self.interner.get(path) {
            if let Some(mode) = self.modes.get(sym, host) {
                return Some(*mode);
            }
        }
        match &self.baseline {
            Baseline::Unix(b) => b.file_mode(path),
            Baseline::Windows(_) => None,
        }
    }

    fn read_has_account(&self, host: u32, name: &str) -> bool {
        if let Some(sym) = self.interner.get(name) {
            if self.accounts.get(host, sym).is_some() {
                return true;
            }
        }
        match &self.baseline {
            Baseline::Unix(b) => b.has_account(name),
            Baseline::Windows(_) => false,
        }
    }

    fn read_all_passwords_encrypted(&self, host: u32) -> bool {
        let Baseline::Unix(base) = &self.baseline else {
            return true;
        };
        // Baseline accounts, with per-host overrides applied.
        for acct in base.accounts() {
            let encrypted = self
                .interner
                .get(acct.name.as_str())
                .and_then(|sym| self.accounts.get(host, sym))
                .map_or(acct.password_encrypted, |ov| ov.password_encrypted);
            if !encrypted {
                return false;
            }
        }
        // Overlay-only accounts (added on this host).
        for (sym, ov) in self.accounts.for_host(host) {
            if !ov.password_encrypted && !base.has_account(self.interner.resolve(sym)) {
                return false;
            }
        }
        true
    }

    fn read_kernel_param(&self, host: u32, key: &str) -> Option<&str> {
        if let Some(sym) = self.interner.get(key) {
            if let Some(v) = self.kernel.get(sym, host) {
                return Some(self.interner.resolve(*v));
            }
        }
        match &self.baseline {
            Baseline::Unix(b) => b.kernel_param(key),
            Baseline::Windows(_) => None,
        }
    }

    fn read_audit(&self, host: u32, category: &str, subcategory: &str) -> AuditSetting {
        if let (Some(c), Some(s)) = (self.interner.get(category), self.interner.get(subcategory)) {
            if let Some(setting) = self.audit.get((c, s), host) {
                return *setting;
            }
        }
        match &self.baseline {
            Baseline::Windows(b) => b.audit_policy().get(category, subcategory),
            Baseline::Unix(_) => AuditSetting::NONE,
        }
    }

    fn read_registry(&self, host: u32, key: &str, name: &str) -> Option<RegistryValue> {
        if let (Some(k), Some(n)) = (self.interner.get(key), self.interner.get(name)) {
            if let Some(v) = self.registry.get((k, n), host) {
                return Some(match v {
                    RegistryOverlay::Dword(d) => RegistryValue::Dword(*d),
                    RegistryOverlay::Sz(s) => {
                        RegistryValue::Sz(self.interner.resolve(*s).to_string())
                    }
                });
            }
        }
        match &self.baseline {
            Baseline::Windows(b) => b.registry_value(key, name).cloned(),
            Baseline::Unix(_) => None,
        }
    }

    fn read_lockout(&self, host: u32) -> (u32, u32) {
        if let Some(v) = self.lockout.get((), host) {
            return *v;
        }
        match &self.baseline {
            Baseline::Windows(b) => (b.lockout_threshold(), b.lockout_duration_minutes()),
            Baseline::Unix(_) => (0, 0),
        }
    }
}

fn host_id(host: usize) -> u32 {
    u32::try_from(host).expect("fleet size is checked against u32 at construction")
}

/// Reconciles one host's overlay with a new effective value: writing
/// the baseline value back drops the overlay, and with no baseline
/// value any write is an overlay. Returns `true` iff the effective
/// state changed.
fn reconcile<K: Ord + Copy, V: PartialEq>(
    table: &mut OverlayTable<K, V>,
    key: K,
    host: u32,
    base: Option<&V>,
    new: V,
) -> bool {
    if base == Some(&new) {
        table.clear(key, host)
    } else {
        match table.get(key, host) {
            Some(existing) if *existing == new => false,
            _ => {
                table.set(key, host, new);
                true
            }
        }
    }
}

/// Read-only view of one store-backed host.
#[derive(Debug, Clone, Copy)]
pub struct HostView<'a> {
    store: &'a FleetStore,
    host: u32,
}

impl HostView<'_> {
    /// This view's host index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.host as usize
    }
}

macro_rules! impl_host_read_for_view {
    ($ty:ty) => {
        impl HostRead for $ty {
            fn platform(&self) -> Platform {
                self.store.config.platform
            }

            fn is_package_installed(&self, name: &str) -> bool {
                self.store
                    .read_package(self.host, name)
                    .is_some_and(|(_, installed)| installed)
            }

            fn package_version(&self, name: &str) -> Option<&str> {
                self.store
                    .read_package(self.host, name)
                    .and_then(|(v, installed)| installed.then_some(v))
            }

            fn installed_package_names(&self) -> Vec<String> {
                self.store.read_installed_package_names(self.host)
            }

            fn service(&self, name: &str) -> Option<ServiceState> {
                self.store.read_service(self.host, name)
            }

            fn directive(&self, path: &str, key: &str) -> Option<&str> {
                self.store.read_directive(self.host, path, key)
            }

            fn file_mode(&self, path: &str) -> Option<FileMode> {
                self.store.read_file_mode(self.host, path)
            }

            fn has_account(&self, name: &str) -> bool {
                self.store.read_has_account(self.host, name)
            }

            fn all_passwords_encrypted(&self) -> bool {
                self.store.read_all_passwords_encrypted(self.host)
            }

            fn kernel_param(&self, key: &str) -> Option<&str> {
                self.store.read_kernel_param(self.host, key)
            }

            fn audit_setting(&self, category: &str, subcategory: &str) -> AuditSetting {
                self.store.read_audit(self.host, category, subcategory)
            }

            fn registry_value(&self, key: &str, name: &str) -> Option<RegistryValue> {
                self.store.read_registry(self.host, key, name)
            }

            fn lockout_threshold(&self) -> u32 {
                self.store.read_lockout(self.host).0
            }

            fn lockout_duration_minutes(&self) -> u32 {
                self.store.read_lockout(self.host).1
            }
        }
    };
}

impl_host_read_for_view!(HostView<'_>);
impl_host_read_for_view!(HostViewMut<'_>);

/// Mutable view of one store-backed host. Every effective state change
/// marks the host dirty; writes that restore the baseline value drop
/// the overlay entry (copy-on-write in both directions).
#[derive(Debug)]
pub struct HostViewMut<'a> {
    store: &'a mut FleetStore,
    host: u32,
}

impl HostViewMut<'_> {
    /// This view's host index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.host as usize
    }

    fn mark(&mut self, changed: bool) {
        if changed {
            self.store.dirty.insert(self.host);
        }
    }

    fn base_unix(&self) -> Option<&UnixHost> {
        match &self.store.baseline {
            Baseline::Unix(b) => Some(b),
            Baseline::Windows(_) => None,
        }
    }
}

impl HostWrite for HostViewMut<'_> {
    fn install_package(&mut self, name: &str, version: &str) {
        if self.base_unix().is_none() {
            return;
        }
        let sym = self.store.interner.intern(name);
        let vsym = self.store.interner.intern(version);
        let new = PackageOverlay {
            version: vsym,
            installed: true,
        };
        let base = self
            .base_unix()
            .and_then(|b| b.package_state(name))
            .map(|(v, installed)| (v.to_string(), installed));
        let base_ov = base.map(|(v, installed)| PackageOverlay {
            version: self.store.interner.intern(&v),
            installed,
        });
        let changed = reconcile(
            &mut self.store.packages,
            sym,
            self.host,
            base_ov.as_ref(),
            new,
        );
        self.mark(changed);
    }

    fn remove_package(&mut self, name: &str) -> bool {
        let version = match self.store.read_package(self.host, name) {
            Some((v, true)) => v.to_string(),
            _ => return false,
        };
        let vsym = self.store.interner.intern(&version);
        let sym = self.store.interner.intern(name);
        let new = PackageOverlay {
            version: vsym,
            installed: false,
        };
        let base = self
            .base_unix()
            .and_then(|b| b.package_state(name))
            .map(|(v, inst)| (v.to_string(), inst));
        let base_ov = base.map(|(v, inst)| PackageOverlay {
            version: self.store.interner.intern(&v),
            installed: inst,
        });
        let changed = reconcile(
            &mut self.store.packages,
            sym,
            self.host,
            base_ov.as_ref(),
            new,
        );
        self.mark(changed);
        true
    }

    fn set_service(&mut self, name: &str, state: ServiceState) {
        if self.base_unix().is_none() {
            return;
        }
        let sym = self.store.interner.intern(name);
        let base = self.base_unix().and_then(|b| b.service(name));
        let changed = reconcile(
            &mut self.store.services,
            sym,
            self.host,
            base.as_ref(),
            state,
        );
        self.mark(changed);
    }

    fn write_directive(&mut self, path: &str, key: &str, value: &str) {
        if self.base_unix().is_none() {
            return;
        }
        let p = self.store.interner.intern(path);
        let k = self.store.interner.intern(&key.to_ascii_lowercase());
        let v = Some(self.store.interner.intern(value));
        let base_str = self
            .base_unix()
            .and_then(|b| b.directive(path, key))
            .map(str::to_string);
        let base = base_str.map(|s| self.store.interner.intern(&s));
        let changed = reconcile(
            &mut self.store.directives,
            (p, k),
            self.host,
            Some(&base),
            v,
        );
        self.mark(changed);
    }

    fn remove_directive(&mut self, path: &str, key: &str) -> bool {
        if self.store.read_directive(self.host, path, key).is_none() {
            return false;
        }
        let p = self.store.interner.intern(path);
        let k = self.store.interner.intern(&key.to_ascii_lowercase());
        let base_str = self
            .base_unix()
            .and_then(|b| b.directive(path, key))
            .map(str::to_string);
        let base = base_str.map(|s| self.store.interner.intern(&s));
        let changed = reconcile(
            &mut self.store.directives,
            (p, k),
            self.host,
            Some(&base),
            None,
        );
        self.mark(changed);
        true
    }

    fn set_file_mode(&mut self, path: &str, mode: FileMode) {
        if self.base_unix().is_none() {
            return;
        }
        let sym = self.store.interner.intern(path);
        let base = self.base_unix().and_then(|b| b.file_mode(path));
        let changed = reconcile(&mut self.store.modes, sym, self.host, base.as_ref(), mode);
        self.mark(changed);
    }

    fn add_account(&mut self, name: &str, uid: u32, locked: bool, password_encrypted: bool) {
        if self.base_unix().is_none() {
            return;
        }
        let sym = self.store.interner.intern(name);
        let new = AccountOverlay {
            uid,
            locked,
            password_encrypted,
        };
        let base = self
            .base_unix()
            .and_then(|b| b.account(name))
            .map(|a| AccountOverlay {
                uid: a.uid,
                locked: a.locked,
                password_encrypted: a.password_encrypted,
            });
        let changed = if base == Some(new) {
            self.store.accounts.clear(self.host, sym)
        } else {
            match self.store.accounts.get(self.host, sym) {
                Some(existing) if *existing == new => false,
                _ => {
                    self.store.accounts.set(self.host, sym, new);
                    true
                }
            }
        };
        self.mark(changed);
    }

    fn corrupt_password_storage(&mut self, name: &str) -> bool {
        if !self.store.read_has_account(self.host, name) {
            return false;
        }
        let sym = self.store.interner.intern(name);
        let base = self
            .base_unix()
            .and_then(|b| b.account(name))
            .map(|a| AccountOverlay {
                uid: a.uid,
                locked: a.locked,
                password_encrypted: a.password_encrypted,
            });
        let current = self
            .store
            .accounts
            .get(self.host, sym)
            .copied()
            .or(base)
            .expect("account exists");
        let new = AccountOverlay {
            password_encrypted: false,
            ..current
        };
        let changed = if base == Some(new) {
            self.store.accounts.clear(self.host, sym)
        } else if current == new && self.store.accounts.get(self.host, sym).is_some() {
            false
        } else if current == new {
            // Effective state already clear-text via the baseline.
            false
        } else {
            self.store.accounts.set(self.host, sym, new);
            true
        };
        self.mark(changed);
        true
    }

    fn encrypt_all_passwords(&mut self) {
        let Some(base) = self.base_unix() else { return };
        // Collect the effective account set first (borrow discipline).
        let base_accounts: Vec<(String, AccountOverlay)> = base
            .accounts()
            .map(|a| {
                (
                    a.name.clone(),
                    AccountOverlay {
                        uid: a.uid,
                        locked: a.locked,
                        password_encrypted: a.password_encrypted,
                    },
                )
            })
            .collect();
        let mut changed = false;
        for (name, base_ov) in base_accounts {
            let sym = self.store.interner.intern(&name);
            let current = self.store.accounts.get(self.host, sym).copied();
            let effective = current.unwrap_or(base_ov);
            if effective.password_encrypted {
                continue;
            }
            let new = AccountOverlay {
                password_encrypted: true,
                ..effective
            };
            if base_ov == new {
                changed |= self.store.accounts.clear(self.host, sym);
            } else {
                self.store.accounts.set(self.host, sym, new);
                changed = true;
            }
        }
        // Overlay-only accounts.
        let overlay_fixes: Vec<Sym> = self
            .store
            .accounts
            .for_host(self.host)
            .filter(|(_, ov)| !ov.password_encrypted)
            .map(|(sym, _)| sym)
            .collect();
        for sym in overlay_fixes {
            let mut ov = *self
                .store
                .accounts
                .get(self.host, sym)
                .expect("just listed");
            ov.password_encrypted = true;
            self.store.accounts.set(self.host, sym, ov);
            changed = true;
        }
        self.mark(changed);
    }

    fn set_kernel_param(&mut self, key: &str, value: &str) {
        if self.base_unix().is_none() {
            return;
        }
        let k = self.store.interner.intern(key);
        let v = self.store.interner.intern(value);
        let base_str = self
            .base_unix()
            .and_then(|b| b.kernel_param(key))
            .map(str::to_string);
        let base = base_str.map(|s| self.store.interner.intern(&s));
        let changed = reconcile(&mut self.store.kernel, k, self.host, base.as_ref(), v);
        self.mark(changed);
    }

    fn set_audit(&mut self, category: &str, subcategory: &str, setting: AuditSetting) {
        let Baseline::Windows(base) = &self.store.baseline else {
            return;
        };
        let base_setting = base.audit_policy().get(category, subcategory);
        let c = self.store.interner.intern(category);
        let s = self.store.interner.intern(subcategory);
        let changed = reconcile(
            &mut self.store.audit,
            (c, s),
            self.host,
            Some(&base_setting),
            setting,
        );
        self.mark(changed);
    }

    fn set_registry_value(&mut self, key: &str, name: &str, value: RegistryValue) {
        let Baseline::Windows(_) = &self.store.baseline else {
            return;
        };
        let k = self.store.interner.intern(key);
        let n = self.store.interner.intern(name);
        let new = match &value {
            RegistryValue::Dword(d) => RegistryOverlay::Dword(*d),
            RegistryValue::Sz(s) => RegistryOverlay::Sz(self.store.interner.intern(s)),
        };
        let base = match &self.store.baseline {
            Baseline::Windows(b) => b.registry_value(key, name).cloned(),
            Baseline::Unix(_) => None,
        };
        let base_ov = base.map(|v| match v {
            RegistryValue::Dword(d) => RegistryOverlay::Dword(d),
            RegistryValue::Sz(s) => RegistryOverlay::Sz(self.store.interner.intern(&s)),
        });
        let changed = reconcile(
            &mut self.store.registry,
            (k, n),
            self.host,
            base_ov.as_ref(),
            new,
        );
        self.mark(changed);
    }

    fn set_lockout_threshold(&mut self, attempts: u32) {
        let Baseline::Windows(base) = &self.store.baseline else {
            return;
        };
        let base_val = (base.lockout_threshold(), base.lockout_duration_minutes());
        let current = self.store.read_lockout(self.host);
        let new = (attempts, current.1);
        let changed = reconcile(&mut self.store.lockout, (), self.host, Some(&base_val), new);
        self.mark(changed);
    }

    fn set_lockout_duration_minutes(&mut self, minutes: u32) {
        let Baseline::Windows(base) = &self.store.baseline else {
            return;
        };
        let base_val = (base.lockout_threshold(), base.lockout_duration_minutes());
        let current = self.store.read_lockout(self.host);
        let new = (current.0, minutes);
        let changed = reconcile(&mut self.store.lockout, (), self.host, Some(&base_val), new);
        self.mark(changed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unix_config(size: usize, seed: u64) -> FleetConfig {
        FleetConfig {
            size,
            drift_probability: 0.5,
            drift_events_per_host: 3,
            seed,
            platform: Platform::Unix,
        }
    }

    #[test]
    fn pristine_store_answers_like_the_baseline() {
        let cfg = FleetConfig {
            drift_probability: 0.0,
            ..unix_config(10, 1)
        };
        let store = FleetStore::generate(&cfg);
        let base = UnixHost::baseline_ubuntu_1804();
        let v = store.host(4);
        assert_eq!(
            v.is_package_installed("telnetd"),
            base.is_package_installed("telnetd")
        );
        assert_eq!(
            v.directive("/etc/ssh/sshd_config", "PermitEmptyPasswords"),
            base.directive("/etc/ssh/sshd_config", "PermitEmptyPasswords")
        );
        assert_eq!(v.file_mode("/etc/shadow"), base.file_mode("/etc/shadow"));
        assert_eq!(
            store.overlay_entries(),
            0,
            "pristine fleet stores no deltas"
        );
        assert_eq!(store.drifted_count(), 0);
        assert!((0..store.len()).all(|i| crate::diff::diff_hosts(&base, &store.host(i)).is_empty()));
    }

    #[test]
    fn writes_reconcile_back_to_baseline() {
        let cfg = FleetConfig {
            drift_probability: 0.0,
            ..unix_config(5, 0)
        };
        let mut store = FleetStore::generate(&cfg);
        store
            .host_mut(2)
            .set_file_mode("/etc/shadow", FileMode::new(0o666));
        assert_eq!(store.overlay_entries(), 1);
        assert_eq!(store.take_dirty(), vec![2]);
        // Writing the baseline value back drops the overlay entirely.
        store
            .host_mut(2)
            .set_file_mode("/etc/shadow", FileMode::new(0o644));
        assert_eq!(store.overlay_entries(), 0, "remediation shrinks the store");
        assert_eq!(store.take_dirty(), vec![2]);
        // A no-op write is not a change.
        store
            .host_mut(2)
            .set_file_mode("/etc/shadow", FileMode::new(0o644));
        assert_eq!(store.take_dirty(), Vec::<u32>::new());
    }

    #[test]
    fn package_lifecycle_through_views() {
        let cfg = FleetConfig {
            drift_probability: 0.0,
            ..unix_config(3, 0)
        };
        let mut store = FleetStore::generate(&cfg);
        let mut h = store.host_mut(0);
        assert!(!h.is_package_installed("nis"));
        h.install_package("nis", "3.17");
        assert!(h.is_package_installed("nis"));
        assert_eq!(h.package_version("nis"), Some("3.17"));
        assert!(h.remove_package("nis"));
        assert!(!h.is_package_installed("nis"));
        assert!(!h.remove_package("nis"), "second removal is a no-op");
        // Other hosts are untouched.
        assert!(!store.host(1).is_package_installed("nis"));
    }

    #[test]
    fn directives_are_case_insensitive_and_removable() {
        let cfg = FleetConfig {
            drift_probability: 0.0,
            ..unix_config(2, 0)
        };
        let mut store = FleetStore::generate(&cfg);
        let mut h = store.host_mut(1);
        h.write_directive("/etc/ssh/sshd_config", "PermitRootLogin", "yes");
        assert_eq!(
            h.directive("/etc/ssh/sshd_config", "permitrootlogin"),
            Some("yes")
        );
        assert!(h.remove_directive("/etc/ssh/sshd_config", "PERMITROOTLOGIN"));
        assert_eq!(h.directive("/etc/ssh/sshd_config", "PermitRootLogin"), None);
        // Removing a baseline directive tombstones it.
        assert!(h.remove_directive("/etc/ssh/sshd_config", "Protocol"));
        assert_eq!(h.directive("/etc/ssh/sshd_config", "Protocol"), None);
        assert_eq!(
            store.host(0).directive("/etc/ssh/sshd_config", "Protocol"),
            Some("2"),
            "tombstone is per-host"
        );
    }

    #[test]
    fn password_storage_through_views() {
        let cfg = FleetConfig {
            drift_probability: 0.0,
            ..unix_config(2, 0)
        };
        let mut store = FleetStore::generate(&cfg);
        assert!(store.host(0).all_passwords_encrypted());
        assert!(store.host_mut(0).corrupt_password_storage("admin"));
        assert!(!store.host(0).all_passwords_encrypted());
        assert!(store.host(1).all_passwords_encrypted(), "isolation");
        store.host_mut(0).encrypt_all_passwords();
        assert!(store.host(0).all_passwords_encrypted());
        assert_eq!(
            store.overlay_entries(),
            0,
            "re-encryption restores the baseline state exactly"
        );
        assert!(!store.host_mut(0).corrupt_password_storage("ghost"));
    }

    #[test]
    fn windows_store_round_trip() {
        let cfg = FleetConfig {
            size: 4,
            drift_probability: 0.0,
            drift_events_per_host: 0,
            seed: 0,
            platform: Platform::Windows,
        };
        let mut store = FleetStore::generate(&cfg);
        let mut h = store.host_mut(2);
        assert_eq!(
            h.audit_setting("Logon/Logoff", "Logon"),
            AuditSetting::SUCCESS
        );
        h.set_audit("Logon/Logoff", "Logon", AuditSetting::BOTH);
        assert_eq!(h.audit_setting("Logon/Logoff", "Logon"), AuditSetting::BOTH);
        h.set_lockout_threshold(3);
        h.set_lockout_duration_minutes(15);
        assert_eq!(h.lockout_threshold(), 3);
        assert_eq!(h.lockout_duration_minutes(), 15);
        h.set_registry_value(r"HKLM\K", "V", RegistryValue::Dword(7));
        assert_eq!(
            h.registry_value(r"HKLM\K", "V").and_then(|v| v.as_dword()),
            Some(7)
        );
        assert_eq!(
            store.host(0).audit_setting("Logon/Logoff", "Logon"),
            AuditSetting::SUCCESS,
            "other hosts unchanged"
        );

        // A fully drifted Windows fleet: every host drifts, on the
        // Windows baseline.
        let store = FleetStore::generate(&FleetConfig {
            size: 6,
            drift_probability: 1.0,
            drift_events_per_host: 3,
            ..cfg
        });
        assert_eq!((store.len(), store.drifted_count()), (6, 6));
        assert_eq!(store.platform(), Platform::Windows);
        assert!(store.baseline_windows().is_some() && store.baseline_unix().is_none());
        assert!(store.overlay_entries() > 0);
    }

    #[test]
    fn sweep_queries_report_exactly_the_overriding_hosts() {
        let cfg = FleetConfig {
            drift_probability: 0.0,
            ..unix_config(20, 0)
        };
        let mut store = FleetStore::generate(&cfg);
        store.host_mut(3).install_package("nis", "3.17");
        store.host_mut(17).install_package("nis", "3.17");
        store.host_mut(9).remove_package("vlock");
        let hosts = |store: &FleetStore, key: HostKey<'_>| store.hosts_with_override(&key);
        assert_eq!(hosts(&store, HostKey::Package("nis")), vec![3, 17]);
        assert_eq!(hosts(&store, HostKey::Package("vlock")), vec![9]);
        assert_eq!(hosts(&store, HostKey::Package("sudo")), Vec::<u32>::new());
        store
            .host_mut(5)
            .write_directive("/etc/ssh/sshd_config", "PermitRootLogin", "yes");
        assert_eq!(
            hosts(
                &store,
                HostKey::Directive("/etc/ssh/sshd_config", "permitrootlogin")
            ),
            vec![5]
        );
        store.host_mut(1).corrupt_password_storage("admin");
        assert_eq!(hosts(&store, HostKey::Accounts), vec![1]);
    }

    #[test]
    fn memory_is_delta_proportional() {
        let small = FleetStore::generate(&unix_config(100, 5));
        let large = FleetStore::generate(&FleetConfig {
            drift_probability: 0.0,
            ..unix_config(100_000, 5)
        });
        // A 1000x larger pristine fleet costs the same as a small one:
        // the baseline plus nothing.
        assert_eq!(large.memory_profile().overlay_bytes, 0);
        assert!(small.memory_profile().overlay_bytes > 0);
        let profile = small.memory_profile();
        assert_eq!(
            profile.total_bytes,
            profile.baseline_bytes
                + profile.interner_bytes
                + profile.overlay_bytes
                + profile.dirty_bytes
        );
    }

    #[test]
    fn take_dirty_drains_and_orders() {
        let cfg = FleetConfig {
            drift_probability: 0.0,
            ..unix_config(50, 0)
        };
        let mut store = FleetStore::generate(&cfg);
        for i in [40usize, 3, 17, 3] {
            store.host_mut(i).install_package("nis", "3.17");
        }
        assert_eq!(store.dirty_len(), 3);
        assert_eq!(store.take_dirty(), vec![3, 17, 40]);
        assert_eq!(store.take_dirty(), Vec::<u32>::new());
    }
}
