//! Scan providers wiring the SSD into the analytics engine (the
//! datasource API of Figure 9).

use assasin_analytics::{costs, Pred, Relation, ScanOutcome, ScanProvider};
use assasin_core::EngineKind;
use assasin_ftl::Lpa;
use assasin_kernels::query::PsfParams;
use assasin_ssd::{ScompRequest, Ssd, SsdError};
use assasin_workloads::{Table, TableId, TpchGen};
use std::collections::HashMap;

use crate::bundles;
use crate::runner::{harness_config, ssd_with, Streams};

#[derive(Debug, Clone)]
struct Stored {
    lpas: Vec<Lpa>,
    csv_len: u64,
    table: Table,
}

/// Generates every table and loads its CSV form as input stream `i` of
/// `TableId::ALL`.
fn load_tables(ssd: &mut Ssd, gen: &TpchGen) -> Result<HashMap<TableId, Stored>, SsdError> {
    let tables: Vec<Table> = TableId::ALL.into_iter().map(|id| gen.table(id)).collect();
    let loaded = Streams::load(ssd, tables.iter().map(Table::to_csv))?;
    let placed = loaded.lpa_lists.into_iter().zip(loaded.lengths);
    let mut out = HashMap::new();
    for ((id, table), (lpas, csv_len)) in TableId::ALL.into_iter().zip(tables).zip(placed) {
        out.insert(
            id,
            Stored {
                lpas,
                csv_len,
                table,
            },
        );
    }
    Ok(out)
}

/// The whole TPC-H dataset generated and loaded onto one preconditioned
/// device image, forkable into per-mode providers. Figure 15's three
/// system configurations scan identical media, so they share one load
/// (the media contents are engine-independent) and each fork shares every
/// flash page copy-on-write.
#[derive(Debug, Clone)]
pub struct LoadedTables {
    image: assasin_ssd::SsdImage,
    tables: HashMap<TableId, Stored>,
}

impl LoadedTables {
    /// Generates the dataset and loads every table once.
    ///
    /// # Errors
    ///
    /// Propagates SSD load failures (capacity, device full, media).
    pub fn load(gen: &TpchGen) -> Result<Self, SsdError> {
        let mut ssd = ssd_with(EngineKind::Baseline, 8, false, false);
        let tables = load_tables(&mut ssd, gen)?;
        Ok(LoadedTables {
            image: ssd.into_image(),
            tables,
        })
    }

    fn fork(&self, engine: EngineKind, adjusted: bool) -> Ssd {
        self.image.fork(harness_config(engine, 8, adjusted, false))
    }
}

/// Offloading provider: every base-table scan becomes a PSF `scomp` on the
/// computational SSD; only the filtered, projected rows cross PCIe.
pub struct SsdScanProvider {
    ssd: Ssd,
    tables: HashMap<TableId, Stored>,
}

impl SsdScanProvider {
    /// Builds an SSD with `engine` compute and loads the TPC-H dataset
    /// (CSV form, as SparkSQL's datasource reads it).
    ///
    /// # Errors
    ///
    /// Propagates SSD load failures.
    pub fn new(engine: EngineKind, gen: &TpchGen) -> Result<Self, SsdError> {
        let mut ssd = ssd_with(engine, 8, false, false);
        let tables = load_tables(&mut ssd, gen)?;
        Ok(SsdScanProvider { ssd, tables })
    }

    /// Forks a provider off a preloaded dataset instead of re-generating
    /// and re-loading it (byte-identical results to [`SsdScanProvider::new`]).
    pub fn from_tables(engine: EngineKind, adjusted: bool, loaded: &LoadedTables) -> Self {
        SsdScanProvider {
            ssd: loaded.fork(engine, adjusted),
            tables: loaded.tables.clone(),
        }
    }
}

impl ScanProvider for SsdScanProvider {
    fn scan(&mut self, table: TableId, preds: &[Pred], project: &[u32]) -> ScanOutcome {
        let stored = self.tables.get(&table).expect("table loaded");
        let fields = table.width() as u32;
        // Push the first predicate into the SSD; the rest are residual.
        let (dev_pred, residual) = match preds.split_first() {
            Some((d, r)) => (*d, r),
            None => (
                Pred {
                    col: 0,
                    lo: 0,
                    hi: u32::MAX,
                },
                &[][..],
            ),
        };
        let mut keep: Vec<u32> = project.to_vec();
        for p in residual {
            if !keep.contains(&p.col) {
                keep.push(p.col);
            }
        }
        let params = PsfParams {
            fields,
            pred_field: dev_pred.col,
            lo: dev_pred.lo,
            hi: dev_pred.hi,
            keep: keep.clone(),
        };
        let req = ScompRequest::new(bundles::psf_bundle(params), vec![stored.lpas.clone()])
            .with_stream_bytes(vec![stored.csv_len]);
        let result = self.ssd.scomp(&req).expect("psf offload completes");
        let wide = Relation::from_binary(keep.len().max(1), &result.concat_output());

        // Residual filtering + final projection on the host.
        let col_pos = |c: u32| keep.iter().position(|&k| k == c).expect("kept");
        let mut rel = Relation::empty(project.len().max(1));
        let mut buf = Vec::with_capacity(project.len());
        let mut kept_rows = 0usize;
        for row in wide.iter() {
            if residual.iter().all(|p| p.matches(row[col_pos(p.col)])) {
                buf.clear();
                buf.extend(project.iter().map(|&c| row[col_pos(c)]));
                rel.push_row(&buf);
                kept_rows += 1;
            }
        }
        let host_ops = wide.rows() as f64 * costs::INGEST_PER_ROW
            + wide.rows() as f64 * residual.len() as f64 * costs::FILTER_PER_ROW
            + kept_rows as f64 * costs::MATERIALIZE_PER_ROW;
        ScanOutcome {
            relation: rel,
            device_time: result.elapsed,
            host_ops,
            bytes_from_storage: result.bytes_out,
        }
    }
}

/// CPU-only provider (the disaggregated-storage comparison of Figure 15):
/// raw CSV crosses the interface; the host parses, filters and projects.
pub struct CpuOnlyProvider {
    ssd: Ssd,
    tables: HashMap<TableId, Stored>,
}

impl CpuOnlyProvider {
    /// Loads the dataset onto a plain SSD.
    ///
    /// # Errors
    ///
    /// Propagates SSD load failures.
    pub fn new(gen: &TpchGen) -> Result<Self, SsdError> {
        let mut ssd = ssd_with(EngineKind::Baseline, 8, false, false);
        let tables = load_tables(&mut ssd, gen)?;
        Ok(CpuOnlyProvider { ssd, tables })
    }

    /// Forks a provider off a preloaded dataset (byte-identical results to
    /// [`CpuOnlyProvider::new`]).
    pub fn from_tables(loaded: &LoadedTables) -> Self {
        CpuOnlyProvider {
            ssd: loaded.fork(EngineKind::Baseline, false),
            tables: loaded.tables.clone(),
        }
    }
}

impl ScanProvider for CpuOnlyProvider {
    fn scan(&mut self, table: TableId, preds: &[Pred], project: &[u32]) -> ScanOutcome {
        let stored = self.tables.get(&table).expect("table loaded");
        let io = self
            .ssd
            .read_lpas(&stored.lpas, stored.csv_len)
            .expect("plain read");
        let mut rel = Relation::empty(project.len().max(1));
        let mut buf = Vec::with_capacity(project.len());
        let mut kept = 0usize;
        for row in stored.table.iter() {
            if preds.iter().all(|p| p.matches(row[p.col as usize])) {
                buf.clear();
                buf.extend(project.iter().map(|&c| row[c as usize]));
                rel.push_row(&buf);
                kept += 1;
            }
        }
        let rows = stored.table.rows() as f64;
        let host_ops = stored.csv_len as f64 * costs::PARSE_PER_BYTE
            + rows * preds.len().max(1) as f64 * costs::FILTER_PER_ROW
            + kept as f64 * costs::MATERIALIZE_PER_ROW;
        ScanOutcome {
            relation: rel,
            device_time: io.elapsed,
            host_ops,
            bytes_from_storage: stored.csv_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use assasin_analytics::{Executor, HostCpuModel, HostScanProvider};
    use assasin_sim::SimDur;

    fn gen() -> TpchGen {
        TpchGen::new(0.002, 99)
    }

    #[test]
    fn offload_scan_matches_host_scan() {
        let g = gen();
        let mut host = HostScanProvider::new();
        for id in TableId::ALL {
            host.add_table(g.table(id));
        }
        let mut offl = SsdScanProvider::new(EngineKind::AssasinSb, &g).expect("dataset fits");
        let preds = vec![Pred::range(10, 365, 900), Pred::range(4, 1, 30)];
        let project = vec![0u32, 5, 10];
        let a = host.scan(TableId::Lineitem, &preds, &project);
        let b = offl.scan(TableId::Lineitem, &preds, &project);
        assert_eq!(
            a.relation, b.relation,
            "offload must be semantically transparent"
        );
        assert!(b.device_time > SimDur::ZERO);
        assert!(
            b.bytes_from_storage < a.bytes_from_storage,
            "early reduction"
        );
    }

    #[test]
    fn cpu_only_provider_pays_parse_costs() {
        let g = gen();
        let mut cpu = CpuOnlyProvider::new(&g).expect("dataset fits");
        let out = cpu.scan(TableId::Orders, &[], &[0, 1]);
        assert!(out.host_ops > out.relation.rows() as f64 * 10.0);
        assert!(out.device_time > SimDur::ZERO);
    }

    #[test]
    fn full_query_same_answer_on_all_providers() {
        let g = gen();
        let plan = assasin_analytics::queries::plan(6);
        let mut host = HostScanProvider::new();
        for id in TableId::ALL {
            host.add_table(g.table(id));
        }
        let run = |p: &mut dyn ScanProvider| {
            Executor::new(p, HostCpuModel::default())
                .run(&plan)
                .relation
        };
        let r_host = run(&mut host);
        let mut cpu = CpuOnlyProvider::new(&g).expect("dataset fits");
        let r_cpu = run(&mut cpu);
        let mut sb = SsdScanProvider::new(EngineKind::AssasinSb, &g).expect("dataset fits");
        let r_sb = run(&mut sb);
        assert_eq!(r_host, r_cpu);
        assert_eq!(r_host, r_sb);
    }

    #[test]
    fn forked_provider_matches_fresh_provider() {
        let g = gen();
        let loaded = LoadedTables::load(&g).expect("dataset fits");
        let preds = vec![Pred::range(10, 365, 900)];
        let project = vec![0u32, 5, 10];
        let mut fresh = SsdScanProvider::new(EngineKind::AssasinSb, &g).expect("dataset fits");
        let a = fresh.scan(TableId::Lineitem, &preds, &project);
        let mut forked = SsdScanProvider::from_tables(EngineKind::AssasinSb, false, &loaded);
        let b = forked.scan(TableId::Lineitem, &preds, &project);
        assert_eq!(a.relation, b.relation);
        assert_eq!(a.device_time, b.device_time, "fork must not change timing");
        assert_eq!(a.bytes_from_storage, b.bytes_from_storage);
    }
}
