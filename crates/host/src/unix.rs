//! Simulated Unix (Ubuntu-like) host.
//!
//! Models the slices of a Debian-family system that the Ubuntu 18.04 STIG
//! requirements in `vdo-stigs` touch: the dpkg package database, systemd
//! services, directive-style configuration files (`sshd_config`,
//! `login.defs`, PAM), file permission bits, and local user accounts.

use std::collections::BTreeMap;
use std::fmt;

use vdo_obs::hash::{fnv1a, FNV_OFFSET};

/// Installation state of one package in the simulated dpkg database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackageState {
    /// Version string as dpkg would report it.
    pub version: String,
    /// `true` if the package is installed (`ii`), `false` if removed but
    /// config files remain (`rc`).
    pub installed: bool,
}

/// State of one systemd-style service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceState {
    /// Enabled at boot.
    pub enabled: bool,
    /// Currently running.
    pub active: bool,
}

/// Unix permission bits (the low 12 bits of `st_mode`).
///
/// ```
/// use vdo_host::FileMode;
/// let m = FileMode::new(0o640);
/// assert!(m.group_readable());
/// assert!(!m.world_readable());
/// assert_eq!(m.to_string(), "0640");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileMode(u16);

impl FileMode {
    /// Wraps an octal mode. Bits above 0o7777 are masked off.
    #[must_use]
    pub fn new(mode: u16) -> Self {
        FileMode(mode & 0o7777)
    }

    /// The raw bits.
    #[must_use]
    pub fn bits(self) -> u16 {
        self.0
    }

    /// Owner-read bit set.
    #[must_use]
    pub fn owner_readable(self) -> bool {
        self.0 & 0o400 != 0
    }

    /// Group-read bit set.
    #[must_use]
    pub fn group_readable(self) -> bool {
        self.0 & 0o040 != 0
    }

    /// World-read bit set.
    #[must_use]
    pub fn world_readable(self) -> bool {
        self.0 & 0o004 != 0
    }

    /// World-write bit set.
    #[must_use]
    pub fn world_writable(self) -> bool {
        self.0 & 0o002 != 0
    }

    /// `true` iff no permission bit outside `max` is set — the STIG
    /// "mode must be NNN or more restrictive" test.
    #[must_use]
    pub fn at_most(self, max: FileMode) -> bool {
        self.0 & !max.0 == 0
    }
}

impl fmt::Display for FileMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04o}", self.0)
    }
}

/// A directive-style configuration file: ordered `key value` pairs with
/// last-one-wins lookup, the way sshd and login.defs behave.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ConfigFile {
    directives: Vec<(String, String)>,
    mode: Option<FileMode>,
    owner: Option<String>,
}

/// A local user account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Account {
    pub name: String,
    pub uid: u32,
    pub locked: bool,
    pub password_encrypted: bool,
}

/// One slot of a host's configuration that a single write changes.
/// Every [`HostWrite`](crate::HostWrite) method writes one key, every
/// STIG check reads a fixed set of them, and [`id`](Self::id) names a
/// key as the `u64` a requirement catalogue indexes its rules by.
///
/// The four slots a commit writes (package, service, directive, file
/// mode) can also save their exact state on a [`UnixHost`] and put it
/// back, which is how a change is staged on a host in place and undone:
/// save each key just before writing it, and restore the keys newest
/// first. The host is then `==` to what it was before the first write.
///
/// ```
/// use vdo_host::{HostKey, UnixHost};
/// let mut host = UnixHost::baseline_ubuntu_1804();
/// let before = host.clone();
/// let key = HostKey::Directive("/etc/app.conf", "Mode");
/// let saved = key.save(&host);
/// host.write_directive("/etc/app.conf", "Mode", "strict");
/// key.restore(&mut host, saved);
/// assert_eq!(host, before);
/// assert_eq!(key.id(), HostKey::Directive("/etc/app.conf", "MODE").id());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostKey<'a> {
    /// A package record (`install_package`, `remove_package`).
    Package(&'a str),
    /// A service unit (`set_service`, `enable_service`, `disable_service`).
    Service(&'a str),
    /// One directive `(path, key)` of a config file (`write_directive`);
    /// the key matches ASCII case-insensitively, like every lookup.
    Directive(&'a str, &'a str),
    /// A file's permission bits (`set_file_mode`).
    FileMode(&'a str),
    /// The whole account table, which password hygiene reads.
    Accounts,
    /// A sysctl-style kernel parameter (`set_kernel_param`).
    KernelParam(&'a str),
    /// A Windows audit subcategory `(category, subcategory)`.
    Audit(&'a str, &'a str),
    /// A Windows registry value `(key, name)`.
    Registry(&'a str, &'a str),
    /// The Windows account-lockout policy: threshold and duration.
    Lockout,
}

impl HostKey<'_> {
    /// The slot's id: FNV-1a of a tag and the key's fields, directive
    /// keys lowercased, so keys naming one slot share an id. A collision
    /// (about 2^-64) would only make an index re-check one rule more.
    #[must_use]
    pub fn id(&self) -> u64 {
        let (tag, a, b) = match *self {
            HostKey::Package(name) => (b'p', name, ""),
            HostKey::Service(name) => (b's', name, ""),
            HostKey::Directive(path, key) => (b'd', path, key),
            HostKey::FileMode(path) => (b'm', path, ""),
            HostKey::Accounts => (b'a', "", ""),
            HostKey::KernelParam(key) => (b'k', key, ""),
            HostKey::Audit(category, subcategory) => (b'u', category, subcategory),
            HostKey::Registry(key, name) => (b'r', key, name),
            HostKey::Lockout => (b'l', "", ""),
        };
        let h = fnv1a(fnv1a(fnv1a(FNV_OFFSET, &[tag]), a.as_bytes()), &[0]);
        b.bytes().fold(h, |h, c| {
            fnv1a(
                h,
                &[if tag == b'd' {
                    c.to_ascii_lowercase()
                } else {
                    c
                }],
            )
        })
    }

    /// The key's exact current state on `host`; nothing for a key no
    /// commit writes.
    #[must_use]
    pub fn save(&self, host: &UnixHost) -> SavedKey {
        let saved = match *self {
            HostKey::Package(name) => Saved::Package(host.packages.get(name).cloned()),
            HostKey::Service(name) => Saved::Service(host.services.get(name).copied()),
            HostKey::Directive(path, key) => match host.files.get(path) {
                None => Saved::NoFile,
                Some(file) => Saved::Directive {
                    lines: file.directives.len(),
                    // `write_directive` overwrites the first matching line.
                    matched: file
                        .directives
                        .iter()
                        .position(|(k, _)| k.eq_ignore_ascii_case(key))
                        .map(|i| (i, file.directives[i].1.clone())),
                },
            },
            HostKey::FileMode(path) => match host.files.get(path) {
                None => Saved::NoFile,
                Some(file) => Saved::FileMode(file.mode),
            },
            _ => Saved::Nothing,
        };
        SavedKey(saved)
    }

    /// Puts the key back to `saved`, a state this key saved. Exact when
    /// every write to other keys since that save has been undone. Never
    /// panics (a state that does not fit the key is ignored), so a guard
    /// may call it while unwinding.
    pub fn restore(&self, host: &mut UnixHost, saved: SavedKey) {
        match (*self, saved.0) {
            (HostKey::Package(name), Saved::Package(state)) => match state {
                Some(state) => {
                    host.packages.insert(name.to_string(), state);
                }
                None => {
                    host.packages.remove(name);
                }
            },
            (HostKey::Service(name), Saved::Service(state)) => match state {
                Some(state) => {
                    host.services.insert(name.to_string(), state);
                }
                None => {
                    host.services.remove(name);
                }
            },
            (HostKey::Directive(path, _) | HostKey::FileMode(path), Saved::NoFile) => {
                host.files.remove(path);
            }
            (HostKey::Directive(path, _), Saved::Directive { lines, matched }) => {
                if let Some(file) = host.files.get_mut(path) {
                    file.directives.truncate(lines);
                    if let Some((i, value)) = matched {
                        if let Some(slot) = file.directives.get_mut(i) {
                            slot.1 = value;
                        }
                    }
                }
            }
            (HostKey::FileMode(path), Saved::FileMode(mode)) => {
                if let Some(file) = host.files.get_mut(path) {
                    file.mode = mode;
                }
            }
            _ => {}
        }
    }
}

/// The state of one [`HostKey`] as [`HostKey::save`] found it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedKey(Saved);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Saved {
    Package(Option<PackageState>),
    Service(Option<ServiceState>),
    /// The key's file did not exist.
    NoFile,
    /// The file's line count, and the first line matching the key with
    /// its value, if one matched.
    Directive {
        lines: usize,
        matched: Option<(usize, String)>,
    },
    FileMode(Option<FileMode>),
    /// A key no commit writes.
    Nothing,
}

/// In-memory simulation of an Ubuntu-like host.
///
/// All lookups are deterministic; no global state, no I/O. See the crate
/// docs for why this substitutes for a real machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnixHost {
    hostname: String,
    packages: BTreeMap<String, PackageState>,
    services: BTreeMap<String, ServiceState>,
    files: BTreeMap<String, ConfigFile>,
    accounts: BTreeMap<String, Account>,
    kernel_params: BTreeMap<String, String>,
}

impl UnixHost {
    /// Creates an empty host with the given hostname.
    #[must_use]
    pub fn new(hostname: impl Into<String>) -> Self {
        UnixHost {
            hostname: hostname.into(),
            ..UnixHost::default()
        }
    }

    /// A host resembling a stock Ubuntu 18.04 server install: OpenSSH
    /// present, no hardening applied. This is the canonical *non-yet-
    /// compliant* starting point for the STIG experiments.
    #[must_use]
    pub fn baseline_ubuntu_1804() -> Self {
        let mut h = UnixHost::new("ubuntu-1804");
        for (pkg, ver) in [
            ("openssh-server", "7.6p1"),
            ("openssh-client", "7.6p1"),
            ("sudo", "1.8.21"),
            ("systemd", "237"),
            ("libpam-modules", "1.1.8"),
            ("vlock", "2.2.2"),
            ("telnetd", "0.17"), // STIG violation: must be removed
        ] {
            h.install_package(pkg, ver);
        }
        h.set_service(
            "sshd",
            ServiceState {
                enabled: true,
                active: true,
            },
        );
        h.set_service(
            "rsyslog",
            ServiceState {
                enabled: true,
                active: true,
            },
        );
        h.write_directive("/etc/ssh/sshd_config", "PermitEmptyPasswords", "yes");
        h.write_directive("/etc/ssh/sshd_config", "Protocol", "2");
        h.write_directive("/etc/ssh/sshd_config", "ClientAliveInterval", "900");
        h.write_directive("/etc/login.defs", "ENCRYPT_METHOD", "MD5");
        h.write_directive("/etc/login.defs", "PASS_MAX_DAYS", "99999");
        h.set_file_mode("/etc/shadow", FileMode::new(0o644)); // violation
        h.set_file_mode("/var/log", FileMode::new(0o755));
        h.add_account("root", 0, false, true);
        h.add_account("admin", 1000, false, true);
        h.set_kernel_param("kernel.dmesg_restrict", "0");
        h
    }

    /// Hostname of the simulated machine.
    #[must_use]
    pub fn hostname(&self) -> &str {
        &self.hostname
    }

    // ---- package database ------------------------------------------------

    /// Installs (or upgrades) a package.
    pub fn install_package(&mut self, name: impl Into<String>, version: impl Into<String>) {
        self.packages.insert(
            name.into(),
            PackageState {
                version: version.into(),
                installed: true,
            },
        );
    }

    /// Removes a package (config files remain, as with `apt-get remove`).
    /// Returns `true` if the package was installed.
    pub fn remove_package(&mut self, name: &str) -> bool {
        match self.packages.get_mut(name) {
            Some(p) if p.installed => {
                p.installed = false;
                true
            }
            _ => false,
        }
    }

    /// `true` iff the package is currently installed.
    #[must_use]
    pub fn is_package_installed(&self, name: &str) -> bool {
        self.packages.get(name).is_some_and(|p| p.installed)
    }

    /// Installed version, if the package is installed.
    #[must_use]
    pub fn package_version(&self, name: &str) -> Option<&str> {
        self.packages
            .get(name)
            .filter(|p| p.installed)
            .map(|p| p.version.as_str())
    }

    /// Iterates over installed package names.
    pub fn installed_packages(&self) -> impl Iterator<Item = &str> {
        self.packages
            .iter()
            .filter(|(_, p)| p.installed)
            .map(|(n, _)| n.as_str())
    }

    // ---- services ----------------------------------------------------------

    /// Sets the full state of a service (creating it if unknown).
    pub fn set_service(&mut self, name: impl Into<String>, state: ServiceState) {
        self.services.insert(name.into(), state);
    }

    /// Current state of a service; `None` if the unit does not exist.
    #[must_use]
    pub fn service(&self, name: &str) -> Option<ServiceState> {
        self.services.get(name).copied()
    }

    /// Enables and starts a service. Creates the unit if missing.
    pub fn enable_service(&mut self, name: &str) {
        self.services.insert(
            name.to_string(),
            ServiceState {
                enabled: true,
                active: true,
            },
        );
    }

    /// Disables and stops a service. Returns `true` if the unit existed.
    pub fn disable_service(&mut self, name: &str) -> bool {
        match self.services.get_mut(name) {
            Some(s) => {
                s.enabled = false;
                s.active = false;
                true
            }
            None => false,
        }
    }

    // ---- configuration files -----------------------------------------------

    /// Appends or replaces a `key value` directive in a config file,
    /// creating the file if needed. Keys are case-insensitive, matching
    /// sshd behaviour.
    pub fn write_directive(
        &mut self,
        path: impl Into<String>,
        key: impl Into<String>,
        value: impl Into<String>,
    ) {
        let key = key.into();
        let value = value.into();
        let file = self.files.entry(path.into()).or_default();
        if let Some(slot) = file
            .directives
            .iter_mut()
            .find(|(k, _)| k.eq_ignore_ascii_case(&key))
        {
            slot.1 = value;
        } else {
            file.directives.push((key, value));
        }
    }

    /// Effective value of a directive (`None` if the file or key is
    /// absent). Case-insensitive on the key.
    #[must_use]
    pub fn directive(&self, path: &str, key: &str) -> Option<&str> {
        self.files
            .get(path)?
            .directives
            .iter()
            .rev()
            .find_map(|(k, v)| k.eq_ignore_ascii_case(key).then_some(v.as_str()))
    }

    /// Removes a directive; returns `true` if it existed.
    pub fn remove_directive(&mut self, path: &str, key: &str) -> bool {
        match self.files.get_mut(path) {
            Some(f) => {
                let before = f.directives.len();
                f.directives.retain(|(k, _)| !k.eq_ignore_ascii_case(key));
                f.directives.len() != before
            }
            None => false,
        }
    }

    /// `true` iff the file exists in the simulation.
    #[must_use]
    pub fn file_exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    // ---- file modes ----------------------------------------------------------

    /// Sets the permission bits of a path (creating the file record).
    pub fn set_file_mode(&mut self, path: impl Into<String>, mode: FileMode) {
        self.files.entry(path.into()).or_default().mode = Some(mode);
    }

    /// Permission bits of a path, if recorded.
    #[must_use]
    pub fn file_mode(&self, path: &str) -> Option<FileMode> {
        self.files.get(path)?.mode
    }

    // ---- accounts -------------------------------------------------------------

    /// Adds (or replaces) a local account.
    pub fn add_account(&mut self, name: &str, uid: u32, locked: bool, password_encrypted: bool) {
        self.accounts.insert(
            name.to_string(),
            Account {
                name: name.to_string(),
                uid,
                locked,
                password_encrypted,
            },
        );
    }

    /// `true` iff the account exists.
    #[must_use]
    pub fn has_account(&self, name: &str) -> bool {
        self.accounts.contains_key(name)
    }

    /// `true` iff every account stores its password encrypted (shadow
    /// suite behaviour) — queried by STIG V-219177.
    #[must_use]
    pub fn all_passwords_encrypted(&self) -> bool {
        self.accounts.values().all(|a| a.password_encrypted)
    }

    /// Marks one account's password as stored in clear text (drift /
    /// attack simulation). Returns `true` if the account exists.
    pub fn corrupt_password_storage(&mut self, name: &str) -> bool {
        match self.accounts.get_mut(name) {
            Some(a) => {
                a.password_encrypted = false;
                true
            }
            None => false,
        }
    }

    /// Re-encrypts every stored password (the fix action for V-219177).
    pub fn encrypt_all_passwords(&mut self) {
        for a in self.accounts.values_mut() {
            a.password_encrypted = true;
        }
    }

    // ---- kernel parameters ------------------------------------------------------

    /// Sets a sysctl-style kernel parameter.
    pub fn set_kernel_param(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.kernel_params.insert(key.into(), value.into());
    }

    /// Reads a kernel parameter.
    #[must_use]
    pub fn kernel_param(&self, key: &str) -> Option<&str> {
        self.kernel_params.get(key).map(String::as_str)
    }

    // ---- columnar-store support -------------------------------------------------

    /// The full package record — version and installed flag — including
    /// removed-but-recorded packages (the copy-on-write store reconciles
    /// writes against this).
    pub(crate) fn package_state(&self, name: &str) -> Option<(&str, bool)> {
        self.packages
            .get(name)
            .map(|p| (p.version.as_str(), p.installed))
    }

    /// One account record, if present.
    pub(crate) fn account(&self, name: &str) -> Option<&Account> {
        self.accounts.get(name)
    }

    /// All account records, name-ordered.
    pub(crate) fn accounts(&self) -> impl Iterator<Item = &Account> {
        self.accounts.values()
    }

    /// Coarse estimate of this host's heap footprint in bytes — string
    /// payloads plus per-entry map bookkeeping. Used to compare the
    /// owned-struct layout against the columnar fleet store.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        const ENTRY: usize = 48; // BTreeMap entry + String headers, amortized
        let mut bytes = std::mem::size_of::<UnixHost>() + self.hostname.len();
        for (name, p) in &self.packages {
            bytes += name.len() + p.version.len() + ENTRY;
        }
        for name in self.services.keys() {
            bytes += name.len() + ENTRY;
        }
        for (path, file) in &self.files {
            bytes += path.len() + ENTRY;
            for (k, v) in &file.directives {
                bytes += k.len() + v.len() + ENTRY;
            }
            bytes += file.owner.as_ref().map_or(0, String::len);
        }
        for (name, a) in &self.accounts {
            bytes += name.len() + a.name.len() + ENTRY;
        }
        for (k, v) in &self.kernel_params {
            bytes += k.len() + v.len() + ENTRY;
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn package_lifecycle() {
        let mut h = UnixHost::new("t");
        assert!(!h.is_package_installed("nis"));
        h.install_package("nis", "3.17");
        assert!(h.is_package_installed("nis"));
        assert_eq!(h.package_version("nis"), Some("3.17"));
        assert!(h.remove_package("nis"));
        assert!(!h.is_package_installed("nis"));
        assert_eq!(h.package_version("nis"), None);
        assert!(!h.remove_package("nis"), "second removal is a no-op");
    }

    #[test]
    fn installed_packages_iterates_only_installed() {
        let mut h = UnixHost::new("t");
        h.install_package("a", "1");
        h.install_package("b", "1");
        h.remove_package("a");
        assert_eq!(h.installed_packages().collect::<Vec<_>>(), vec!["b"]);
    }

    #[test]
    fn service_lifecycle() {
        let mut h = UnixHost::new("t");
        assert_eq!(h.service("sshd"), None);
        h.enable_service("sshd");
        assert_eq!(
            h.service("sshd"),
            Some(ServiceState {
                enabled: true,
                active: true
            })
        );
        assert!(h.disable_service("sshd"));
        let s = h.service("sshd").unwrap();
        assert!(!s.enabled && !s.active);
        assert!(!h.disable_service("ghost"));
    }

    #[test]
    fn directives_are_case_insensitive_and_last_wins() {
        let mut h = UnixHost::new("t");
        h.write_directive("/etc/ssh/sshd_config", "PermitRootLogin", "yes");
        assert_eq!(
            h.directive("/etc/ssh/sshd_config", "permitrootlogin"),
            Some("yes")
        );
        h.write_directive("/etc/ssh/sshd_config", "permitrootlogin", "no");
        assert_eq!(
            h.directive("/etc/ssh/sshd_config", "PermitRootLogin"),
            Some("no")
        );
        assert!(h.remove_directive("/etc/ssh/sshd_config", "PERMITROOTLOGIN"));
        assert_eq!(h.directive("/etc/ssh/sshd_config", "PermitRootLogin"), None);
    }

    /// The directive kernels as they were before they compared keys with
    /// `eq_ignore_ascii_case`: both sides lower-cased into fresh
    /// `String`s. Kept verbatim as the reference the allocation-free
    /// kernels must match.
    mod lowercase_reference {
        use super::UnixHost;

        pub fn write_directive(h: &mut UnixHost, path: &str, key: &str, value: &str) {
            let file = h.files.entry(path.to_string()).or_default();
            let lk = key.to_ascii_lowercase();
            if let Some(slot) = file
                .directives
                .iter_mut()
                .find(|(k, _)| k.to_ascii_lowercase() == lk)
            {
                slot.1 = value.to_string();
            } else {
                file.directives.push((key.to_string(), value.to_string()));
            }
        }

        pub fn directive<'h>(h: &'h UnixHost, path: &str, key: &str) -> Option<&'h str> {
            let lk = key.to_ascii_lowercase();
            h.files
                .get(path)?
                .directives
                .iter()
                .rev()
                .find_map(|(k, v)| (k.to_ascii_lowercase() == lk).then_some(v.as_str()))
        }

        pub fn remove_directive(h: &mut UnixHost, path: &str, key: &str) -> bool {
            let lk = key.to_ascii_lowercase();
            match h.files.get_mut(path) {
                Some(f) => {
                    let before = f.directives.len();
                    f.directives.retain(|(k, _)| k.to_ascii_lowercase() != lk);
                    f.directives.len() != before
                }
                None => false,
            }
        }
    }

    /// Key fragments mixing ASCII case with non-ASCII chars whose
    /// Unicode case mappings differ from ASCII folding: the Kelvin sign
    /// (lower-cases to `k`), long s (upper-cases to `S`), dotted capital
    /// I (lower-cases to `i̇`) and sharp s (upper-cases to `SS`).
    const KEY_FRAGMENTS: [&str; 14] = [
        "PermitRootLogin",
        "permitrootlogin",
        "PERMITROOTLOGIN",
        "\u{212A}",
        "k",
        "K",
        "\u{17F}",
        "s",
        "S",
        "\u{130}",
        "i",
        "\u{DF}",
        "SS",
        "ss",
    ];

    /// One generated directive operation: `(kind, path, key, value)`.
    fn directive_op() -> impl Strategy<Value = (u8, &'static str, String, u8)> {
        (
            0u8..3,
            prop::sample::select(vec!["/etc/ssh/sshd_config", "/etc/login.defs"]),
            prop::collection::vec(prop::sample::select(KEY_FRAGMENTS.to_vec()), 1..4)
                .prop_map(|parts| parts.concat()),
            0u8..4,
        )
    }

    proptest! {
        /// `write_directive`, `remove_directive` and `directive` leave
        /// the same host and return the same results as the
        /// lower-casing reference, over random operation sequences.
        #[test]
        fn directive_kernels_match_the_lowercase_reference(
            ops in prop::collection::vec(directive_op(), 1..40),
        ) {
            let mut host = UnixHost::baseline_ubuntu_1804();
            let mut reference = host.clone();
            for (kind, path, key, value) in &ops {
                match kind {
                    0 => {
                        let value = format!("v{value}");
                        host.write_directive(*path, key.as_str(), value.as_str());
                        lowercase_reference::write_directive(&mut reference, path, key, &value);
                    }
                    1 => prop_assert_eq!(
                        host.remove_directive(path, key),
                        lowercase_reference::remove_directive(&mut reference, path, key)
                    ),
                    _ => prop_assert_eq!(
                        host.directive(path, key),
                        lowercase_reference::directive(&reference, path, key)
                    ),
                }
                prop_assert_eq!(&host, &reference);
            }
            for (_, path, key, _) in &ops {
                prop_assert_eq!(
                    host.directive(path, key),
                    lowercase_reference::directive(&reference, path, key)
                );
            }
        }
    }

    #[test]
    fn host_keys_restore_every_slot_exactly() {
        let mut h = UnixHost::baseline_ubuntu_1804();
        let before = h.clone();
        let sshd = "/etc/ssh/sshd_config";
        let mut undo = Vec::new();
        let mut write = |h: &mut UnixHost, key: HostKey<'static>, f: &dyn Fn(&mut UnixHost)| {
            undo.push((key, key.save(h)));
            f(h);
        };
        write(&mut h, HostKey::Package("telnetd"), &|h| {
            h.remove_package("telnetd");
        });
        write(&mut h, HostKey::Package("htop"), &|h| {
            h.install_package("htop", "2.1")
        });
        write(&mut h, HostKey::Service("sshd"), &|h| {
            h.disable_service("sshd");
        });
        write(&mut h, HostKey::Service("auditd"), &|h| {
            h.enable_service("auditd")
        });
        write(&mut h, HostKey::Directive(sshd, "protocol"), &|h| {
            h.write_directive(sshd, "protocol", "1");
        });
        write(&mut h, HostKey::Directive(sshd, "Banner"), &|h| {
            h.write_directive(sshd, "Banner", "none");
        });
        write(&mut h, HostKey::Directive("/etc/new", "A"), &|h| {
            h.write_directive("/etc/new", "A", "1");
        });
        write(&mut h, HostKey::FileMode("/etc/new"), &|h| {
            h.set_file_mode("/etc/new", FileMode::new(0o600));
        });
        write(&mut h, HostKey::Directive("/etc/new", "a"), &|h| {
            h.write_directive("/etc/new", "a", "2");
        });
        write(&mut h, HostKey::FileMode("/etc/shadow"), &|h| {
            h.set_file_mode("/etc/shadow", FileMode::new(0o600));
        });
        assert_ne!(h, before);
        while let Some((key, saved)) = undo.pop() {
            key.restore(&mut h, saved);
        }
        assert_eq!(h, before);
    }

    #[test]
    fn missing_file_yields_none() {
        let mut h = UnixHost::new("t");
        assert_eq!(h.directive("/nope", "Key"), None);
        assert!(!h.file_exists("/nope"));
        assert_eq!(h.file_mode("/nope"), None);
        assert!(!h.remove_directive("/nope", "Key"));
    }

    #[test]
    fn file_modes() {
        let mut h = UnixHost::new("t");
        h.set_file_mode("/etc/shadow", FileMode::new(0o640));
        let m = h.file_mode("/etc/shadow").unwrap();
        assert!(m.at_most(FileMode::new(0o640)));
        assert!(!m.at_most(FileMode::new(0o600)));
        assert!(!m.world_readable());
        assert!(!m.world_writable());
    }

    #[test]
    fn mode_masks_high_bits() {
        assert_eq!(FileMode::new(0o777).bits(), 0o777);
        assert_eq!(FileMode::new(0o17777).bits(), 0o7777);
        let m = FileMode::new(0o640);
        assert!(m.owner_readable() && m.group_readable());
    }

    #[test]
    fn accounts_and_password_storage() {
        let mut h = UnixHost::new("t");
        h.add_account("alice", 1001, false, true);
        h.add_account("bob", 1002, false, true);
        assert!(h.all_passwords_encrypted());
        assert!(h.corrupt_password_storage("bob"));
        assert!(!h.all_passwords_encrypted());
        h.encrypt_all_passwords();
        assert!(h.all_passwords_encrypted());
        assert!(!h.corrupt_password_storage("carol"));
    }

    #[test]
    fn baseline_is_plausible_and_noncompliant() {
        let h = UnixHost::baseline_ubuntu_1804();
        assert!(h.is_package_installed("openssh-server"));
        assert!(
            h.is_package_installed("telnetd"),
            "baseline plants a violation"
        );
        assert_eq!(
            h.directive("/etc/ssh/sshd_config", "PermitEmptyPasswords"),
            Some("yes")
        );
        assert_eq!(h.file_mode("/etc/shadow"), Some(FileMode::new(0o644)));
        assert_eq!(h.kernel_param("kernel.dmesg_restrict"), Some("0"));
    }

    #[test]
    fn kernel_params() {
        let mut h = UnixHost::new("t");
        assert_eq!(h.kernel_param("fs.suid_dumpable"), None);
        h.set_kernel_param("fs.suid_dumpable", "0");
        assert_eq!(h.kernel_param("fs.suid_dumpable"), Some("0"));
    }
}
