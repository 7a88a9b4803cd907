//! Empty placeholder. This crate held the whole-device snapshot codec,
//! which was deleted with the save/restore path it served; devices are
//! reused through the in-memory copy-on-write fork (`SsdImage::fork`)
//! instead. The crate stays only because the benchmark package's lock file
//! (`perfbench/Cargo.lock`) still lists it and the dependency edges from
//! core, flash, ftl, mem, sim and ssd. The next change to the benchmark
//! removes the crate and those edges together.
