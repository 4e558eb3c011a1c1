//! The xexec facility: staging the next VMM instance (paper §4.3).
//!
//! "To load a new VMM instance into the current VMM, we have implemented
//! the xexec system call in the Linux kernel for domain 0 and the xexec
//! hypercall in the VMM. This hypercall loads a new executable image
//! consisting of a VMM, a kernel for domain 0, and an initial RAM disk for
//! domain 0 into memory."
//!
//! [`XexecImage`] models that three-part executable image with content
//! digests; [`XexecState`] tracks the staging slot inside the VMM. Quick
//! reload refuses to run without a staged image, and the reboot verifies
//! the image's integrity before jumping to its entry point — a staged
//! image corrupted by a stray write must be caught, not booted.

use std::fmt;

use rh_sim::rng::splitmix64;

/// The three-part executable image xexec loads (VMM + dom0 kernel +
/// initrd), with per-part content digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XexecImage {
    /// Digest of the hypervisor executable.
    pub vmm_digest: u64,
    /// Digest of the domain-0 kernel.
    pub dom0_kernel_digest: u64,
    /// Digest of the initial RAM disk.
    pub initrd_digest: u64,
    /// Total size of the image in bytes.
    pub size_bytes: u64,
    /// Version tag of the build being staged.
    pub version: u32,
}

impl XexecImage {
    /// Builds a release image of `version` (digests derived
    /// deterministically — a real build system's artifacts).
    pub fn build(version: u32) -> Self {
        let seed = splitmix64(version as u64 ^ 0xB007);
        XexecImage {
            vmm_digest: splitmix64(seed ^ 1),
            dom0_kernel_digest: splitmix64(seed ^ 2),
            initrd_digest: splitmix64(seed ^ 3),
            // Xen 3.0 + dom0 kernel + initrd: ~24 MiB.
            size_bytes: 24 * 1024 * 1024,
            version,
        }
    }

    /// Combined integrity checksum over all three parts.
    pub fn checksum(&self) -> u64 {
        splitmix64(
            self.vmm_digest
                ^ splitmix64(self.dom0_kernel_digest)
                ^ splitmix64(self.initrd_digest ^ self.size_bytes),
        )
    }
}

impl fmt::Display for XexecImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "xexec image v{} ({} MiB, checksum {:#018x})",
            self.version,
            self.size_bytes / (1024 * 1024),
            self.checksum()
        )
    }
}

/// Errors from the xexec facility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XexecError {
    /// Quick reload was attempted with no staged image.
    NothingStaged,
    /// The staged image's checksum no longer matches (memory corruption
    /// between staging and reboot).
    IntegrityViolation {
        /// Checksum at staging time.
        expected: u64,
        /// Checksum at boot time.
        actual: u64,
    },
}

impl fmt::Display for XexecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XexecError::NothingStaged => write!(f, "xexec: no image staged for quick reload"),
            XexecError::IntegrityViolation { expected, actual } => write!(
                f,
                "xexec: staged image corrupted (checksum {expected:#x} != {actual:#x})"
            ),
        }
    }
}

impl std::error::Error for XexecError {}

/// The VMM's xexec staging slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct XexecState {
    staged: Option<(XexecImage, u64)>,
    loads: u64,
    boots: u64,
}

impl XexecState {
    /// An empty staging slot.
    pub fn new() -> Self {
        XexecState::default()
    }

    /// True if an image is staged and ready.
    pub fn is_staged(&self) -> bool {
        self.staged.is_some()
    }

    /// The staged image, if any.
    pub fn staged_image(&self) -> Option<&XexecImage> {
        self.staged.as_ref().map(|(i, _)| i)
    }

    /// Images loaded over the VMM's lifetime.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Successful reboots into staged images.
    pub fn boots(&self) -> u64 {
        self.boots
    }

    /// The xexec hypercall: stages `image`, recording its checksum.
    /// Restaging replaces any previous image.
    pub fn load(&mut self, image: XexecImage) {
        self.staged = Some((image, image.checksum()));
        self.loads += 1;
    }

    /// Simulates memory corruption of the staged image (fault injection
    /// and the integrity ablation): XORs `xor` into the recorded payload
    /// without updating the checksum. Returns whether an image was staged
    /// to corrupt. A zero mask is forced to `0xDEAD` so the call always
    /// actually flips bits.
    pub fn corrupt_staged_with(&mut self, xor: u64) -> bool {
        match self.staged.as_mut() {
            Some((image, _)) => {
                image.initrd_digest ^= if xor == 0 { 0xDEAD } else { xor };
                true
            }
            None => false,
        }
    }

    /// The reboot path: verifies and consumes the staged image, returning
    /// it so the new instance can report its version.
    ///
    /// # Errors
    ///
    /// [`XexecError::NothingStaged`] with an empty slot;
    /// [`XexecError::IntegrityViolation`] if the image was corrupted after
    /// staging.
    pub fn take_for_boot(&mut self) -> Result<XexecImage, XexecError> {
        let (image, expected) = self.staged.take().ok_or(XexecError::NothingStaged)?;
        let actual = image.checksum();
        if actual != expected {
            return Err(XexecError::IntegrityViolation { expected, actual });
        }
        self.boots += 1;
        Ok(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic_and_versioned() {
        let a = XexecImage::build(7);
        let b = XexecImage::build(7);
        let c = XexecImage::build(8);
        assert_eq!(a, b);
        assert_ne!(a.checksum(), c.checksum());
        assert_eq!(a.version, 7);
        assert!(a.to_string().contains("v7"));
    }

    #[test]
    fn stage_and_boot_cycle() {
        let mut x = XexecState::new();
        assert!(!x.is_staged());
        assert!(matches!(x.take_for_boot(), Err(XexecError::NothingStaged)));
        x.load(XexecImage::build(1));
        assert!(x.is_staged());
        assert_eq!(x.staged_image().unwrap().version, 1);
        let booted = x.take_for_boot().unwrap();
        assert_eq!(booted.version, 1);
        assert!(!x.is_staged(), "boot consumes the image");
        assert_eq!(x.loads(), 1);
        assert_eq!(x.boots(), 1);
    }

    #[test]
    fn restaging_replaces_the_image() {
        let mut x = XexecState::new();
        x.load(XexecImage::build(1));
        x.load(XexecImage::build(2));
        assert_eq!(x.staged_image().unwrap().version, 2);
        assert_eq!(x.loads(), 2);
    }

    #[test]
    fn corruption_is_detected_at_boot() {
        let mut x = XexecState::new();
        x.load(XexecImage::build(3));
        assert!(x.corrupt_staged_with(0));
        let err = x.take_for_boot().unwrap_err();
        assert!(matches!(err, XexecError::IntegrityViolation { .. }));
        assert!(err.to_string().contains("corrupted"));
        assert_eq!(x.boots(), 0);
        // The corrupted image is gone; a fresh stage works again.
        x.load(XexecImage::build(3));
        assert!(x.take_for_boot().is_ok());
    }
}
