//! Every rule's declared read-set covers what it really touches.
//!
//! A catalogue re-checks only the rules whose read-set names a key a
//! write touched, and the planner re-checks after an enforcement only
//! the rules sharing a key with it. Both are exact only if each
//! [`CheckOp::read_keys`] names every slot its check reads and every
//! slot its enforcement writes. Here a recording host answers each
//! [`HostRead`] / [`HostWrite`] call from a real host and logs the
//! [`HostKey`] it touched; on random drifted Ubuntu and Windows 10
//! hosts, every row's logged keys must lie inside its declaration.

use std::cell::RefCell;

use proptest::prelude::*;
use vdo_core::{PlannerConfig, RemediationPlanner};
use vdo_host::{
    AuditSetting, DriftInjector, FileMode, HostKey, HostRead, HostWrite, Platform, RegistryValue,
    ServiceState, UnixHost, WindowsHost,
};
use vdo_stigs::sweep::CompiledCheck;

/// A key a call touched, as its id and a readable name; `None` for a
/// call that touches no single key (listing every installed package).
type Touched = (Option<u64>, String);

/// A host that logs the key of every read and write it serves.
struct Recording<H> {
    host: H,
    reads: RefCell<Vec<Touched>>,
    writes: Vec<Touched>,
}

impl<H> Recording<H> {
    fn new(host: H) -> Self {
        Recording {
            host,
            reads: RefCell::new(Vec::new()),
            writes: Vec::new(),
        }
    }

    fn read(&self, key: HostKey<'_>) {
        self.reads
            .borrow_mut()
            .push((Some(key.id()), format!("{key:?}")));
    }

    fn write(&mut self, key: HostKey<'_>) {
        self.writes.push((Some(key.id()), format!("{key:?}")));
    }
}

impl<H: HostRead> HostRead for Recording<H> {
    fn platform(&self) -> Platform {
        self.host.platform()
    }
    fn is_package_installed(&self, name: &str) -> bool {
        self.read(HostKey::Package(name));
        self.host.is_package_installed(name)
    }
    fn package_version(&self, name: &str) -> Option<&str> {
        self.read(HostKey::Package(name));
        self.host.package_version(name)
    }
    fn installed_package_names(&self) -> Vec<String> {
        self.reads
            .borrow_mut()
            .push((None, "installed_package_names".into()));
        self.host.installed_package_names()
    }
    fn service(&self, name: &str) -> Option<ServiceState> {
        self.read(HostKey::Service(name));
        self.host.service(name)
    }
    fn directive(&self, path: &str, key: &str) -> Option<&str> {
        self.read(HostKey::Directive(path, key));
        self.host.directive(path, key)
    }
    fn file_mode(&self, path: &str) -> Option<FileMode> {
        self.read(HostKey::FileMode(path));
        self.host.file_mode(path)
    }
    fn has_account(&self, name: &str) -> bool {
        self.read(HostKey::Accounts);
        self.host.has_account(name)
    }
    fn all_passwords_encrypted(&self) -> bool {
        self.read(HostKey::Accounts);
        self.host.all_passwords_encrypted()
    }
    fn kernel_param(&self, key: &str) -> Option<&str> {
        self.read(HostKey::KernelParam(key));
        self.host.kernel_param(key)
    }
    fn audit_setting(&self, category: &str, subcategory: &str) -> AuditSetting {
        self.read(HostKey::Audit(category, subcategory));
        self.host.audit_setting(category, subcategory)
    }
    fn registry_value(&self, key: &str, name: &str) -> Option<RegistryValue> {
        self.read(HostKey::Registry(key, name));
        self.host.registry_value(key, name)
    }
    fn lockout_threshold(&self) -> u32 {
        self.read(HostKey::Lockout);
        self.host.lockout_threshold()
    }
    fn lockout_duration_minutes(&self) -> u32 {
        self.read(HostKey::Lockout);
        self.host.lockout_duration_minutes()
    }
}

impl<H: HostWrite> HostWrite for Recording<H> {
    fn install_package(&mut self, name: &str, version: &str) {
        self.write(HostKey::Package(name));
        self.host.install_package(name, version);
    }
    fn remove_package(&mut self, name: &str) -> bool {
        self.write(HostKey::Package(name));
        self.host.remove_package(name)
    }
    fn set_service(&mut self, name: &str, state: ServiceState) {
        self.write(HostKey::Service(name));
        self.host.set_service(name, state);
    }
    fn enable_service(&mut self, name: &str) {
        self.write(HostKey::Service(name));
        self.host.enable_service(name);
    }
    fn disable_service(&mut self, name: &str) -> bool {
        self.write(HostKey::Service(name));
        self.host.disable_service(name)
    }
    fn write_directive(&mut self, path: &str, key: &str, value: &str) {
        self.write(HostKey::Directive(path, key));
        self.host.write_directive(path, key, value);
    }
    fn remove_directive(&mut self, path: &str, key: &str) -> bool {
        self.write(HostKey::Directive(path, key));
        self.host.remove_directive(path, key)
    }
    fn set_file_mode(&mut self, path: &str, mode: FileMode) {
        self.write(HostKey::FileMode(path));
        self.host.set_file_mode(path, mode);
    }
    fn add_account(&mut self, name: &str, uid: u32, locked: bool, password_encrypted: bool) {
        self.write(HostKey::Accounts);
        self.host.add_account(name, uid, locked, password_encrypted);
    }
    fn corrupt_password_storage(&mut self, name: &str) -> bool {
        self.write(HostKey::Accounts);
        self.host.corrupt_password_storage(name)
    }
    fn encrypt_all_passwords(&mut self) {
        self.write(HostKey::Accounts);
        self.host.encrypt_all_passwords();
    }
    fn set_kernel_param(&mut self, key: &str, value: &str) {
        self.write(HostKey::KernelParam(key));
        self.host.set_kernel_param(key, value);
    }
    fn set_audit(&mut self, category: &str, subcategory: &str, setting: AuditSetting) {
        self.write(HostKey::Audit(category, subcategory));
        self.host.set_audit(category, subcategory, setting);
    }
    fn set_registry_value(&mut self, key: &str, name: &str, value: RegistryValue) {
        self.write(HostKey::Registry(key, name));
        self.host.set_registry_value(key, name, value);
    }
    fn set_lockout_threshold(&mut self, attempts: u32) {
        self.write(HostKey::Lockout);
        self.host.set_lockout_threshold(attempts);
    }
    fn set_lockout_duration_minutes(&mut self, minutes: u32) {
        self.write(HostKey::Lockout);
        self.host.set_lockout_duration_minutes(minutes);
    }
}

/// Fails unless every key in `touched` is one of `op`'s declared keys.
fn within_declaration(
    rule: &CompiledCheck,
    what: &str,
    touched: &[Touched],
) -> Result<(), TestCaseError> {
    let declared: Vec<u64> = rule.op().read_keys().iter().map(HostKey::id).collect();
    for (id, name) in touched {
        prop_assert!(
            id.is_some_and(|id| declared.contains(&id)),
            "{} {what} {name}, outside its read-set {:?}",
            rule.finding_id(),
            rule.op().read_keys()
        );
    }
    Ok(())
}

/// Checks and enforces every row on `host` through the recorder.
fn rows_stay_within_their_read_sets<H>(
    rules: &[CompiledCheck],
    host: &H,
) -> Result<(), TestCaseError>
where
    H: HostWrite + Clone,
{
    for rule in rules {
        let recorder = Recording::new(host.clone());
        rule.op().check(&recorder);
        within_declaration(rule, "reads", &recorder.reads.borrow())?;

        let mut recorder = Recording::new(host.clone());
        rule.op().enforce(&mut recorder);
        within_declaration(rule, "writes", &recorder.writes)?;
        within_declaration(rule, "reads while enforcing", &recorder.reads.borrow())?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn every_row_reads_and_writes_only_its_declared_keys(
        hardened in prop::bool::ANY,
        seed in 0u64..1_000_000,
        events in 0usize..12,
    ) {
        let ubuntu = vdo_stigs::ubuntu::rules();
        let mut unix = UnixHost::baseline_ubuntu_1804();
        let win10 = vdo_stigs::win10::rules();
        let mut windows = WindowsHost::baseline_win10();
        if hardened {
            let planner = RemediationPlanner::new(PlannerConfig::default());
            planner.remediate(&vdo_stigs::ubuntu::catalog(), &mut unix);
            planner.remediate(&vdo_stigs::win10::catalog(), &mut windows);
        }
        DriftInjector::new(seed).drift(&mut unix, Platform::Unix, events);
        DriftInjector::new(seed).drift(&mut windows, Platform::Windows, events);
        rows_stay_within_their_read_sets(&ubuntu, &unix)?;
        rows_stay_within_their_read_sets(&win10, &windows)?;
    }
}

/// The declaration is what the catalogue indexes: an entry registered
/// from a row reports the row's key ids as its read-set.
#[test]
fn catalogue_entries_carry_their_rows_read_sets() {
    let rules = vdo_stigs::ubuntu::rules();
    let catalog = vdo_stigs::ubuntu::catalog();
    for (rule, entry) in rules.iter().zip(catalog.iter()) {
        let ids: Vec<u64> = rule.op().read_keys().iter().map(HostKey::id).collect();
        assert_eq!(
            entry.read_set(),
            Some(ids.as_slice()),
            "{}",
            rule.finding_id()
        );
    }
}
