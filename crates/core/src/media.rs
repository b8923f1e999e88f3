//! Media types, object specifications, and the derived quantities of
//! Table 1 / Table 2.

use serde::{Deserialize, Serialize};
use ss_types::{Bandwidth, Bytes, Error, ObjectId, Result, SimDuration};

/// A media type: a name and the constant bandwidth its display consumes
/// (§3 assumption: "each object has a constant bandwidth requirement").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediaType {
    /// Human-readable name ("NTSC video", "CD audio", ...).
    pub name: String,
    /// `B_display` for objects of this type.
    pub display_bandwidth: Bandwidth,
}

impl MediaType {
    /// Creates a media type.
    pub fn new(name: impl Into<String>, display_bandwidth: Bandwidth) -> Self {
        MediaType {
            name: name.into(),
            display_bandwidth,
        }
    }

    /// "Network-quality" NTSC video, ≈45 mbps (§1).
    pub fn ntsc() -> Self {
        Self::new("NTSC video", Bandwidth::mbps(45))
    }

    /// CCIR Recommendation 601 video, 216 mbps (§1).
    pub fn ccir601() -> Self {
        Self::new("CCIR-601 video", Bandwidth::mbps(216))
    }

    /// HDTV video, ≈800 mbps (§1).
    pub fn hdtv() -> Self {
        Self::new("HDTV video", Bandwidth::mbps(800))
    }

    /// The single media type of the §4 simulation: 100 mbps.
    pub fn table3() -> Self {
        Self::new("simulated video (Table 3)", Bandwidth::mbps(100))
    }

    /// The degree of declustering for this media type given the effective
    /// per-disk bandwidth: `M = ceil(B_display / B_disk)` (Table 1).
    pub fn degree_of_declustering(&self, b_disk: Bandwidth) -> u32 {
        self.checked_degree(b_disk)
            .expect("absurd declustering degree")
    }

    /// [`Self::degree_of_declustering`], or `None` when `b_disk` is zero
    /// or the degree does not fit a `u32`.
    pub fn checked_degree(&self, b_disk: Bandwidth) -> Option<u32> {
        if b_disk.is_zero() {
            return None;
        }
        u32::try_from(self.display_bandwidth.div_ceil(b_disk)).ok()
    }
}

/// One object in the database: identity, media type, and length in
/// subobjects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectSpec {
    /// The object's identity.
    pub id: ObjectId,
    /// Its media type (determines `B_display` and hence `M_X`).
    pub media: MediaType,
    /// Number of subobjects (stripes) the object is cut into.
    pub subobjects: u32,
}

impl ObjectSpec {
    /// Creates an object specification.
    pub fn new(id: ObjectId, media: MediaType, subobjects: u32) -> Self {
        ObjectSpec {
            id,
            media,
            subobjects,
        }
    }

    /// `M_X`, the number of disks each subobject is declustered across.
    pub fn degree(&self, b_disk: Bandwidth) -> u32 {
        self.media.degree_of_declustering(b_disk)
    }

    /// Size of one subobject: `M_X × size(fragment)` (Table 2).
    pub fn subobject_size(&self, b_disk: Bandwidth, fragment: Bytes) -> Bytes {
        fragment * u64::from(self.degree(b_disk))
    }

    /// Total object size.
    pub fn size(&self, b_disk: Bandwidth, fragment: Bytes) -> Bytes {
        self.subobject_size(b_disk, fragment) * u64::from(self.subobjects)
    }

    /// Total display (playback) time at the media rate.
    pub fn display_time(&self, b_disk: Bandwidth, fragment: Bytes) -> SimDuration {
        self.size(b_disk, fragment)
            .transfer_time(self.media.display_bandwidth)
    }

    /// Display time of one subobject — the paper's **time interval** when
    /// the system is configured so the cluster service time matches it.
    pub fn interval(&self, b_disk: Bandwidth, fragment: Bytes) -> SimDuration {
        self.subobject_size(b_disk, fragment)
            .transfer_time(self.media.display_bandwidth)
    }
}

/// The database catalog: a dense, immutable set of object specifications.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObjectCatalog {
    objects: Vec<ObjectSpec>,
}

impl ObjectCatalog {
    /// Builds a catalog; object ids must be dense `0..n` in order (so they
    /// can index the backing vector).
    pub fn new(objects: Vec<ObjectSpec>) -> Result<Self> {
        for (i, o) in objects.iter().enumerate() {
            if o.id.index() != i {
                return Err(Error::InvalidConfig {
                    reason: format!("object ids must be dense: found {} at position {i}", o.id),
                });
            }
            if o.subobjects == 0 {
                return Err(Error::InvalidConfig {
                    reason: format!("object {} has zero subobjects", o.id),
                });
            }
            if o.media.display_bandwidth.is_zero() {
                return Err(Error::InvalidConfig {
                    reason: format!("object {} has zero display bandwidth", o.id),
                });
            }
        }
        Ok(ObjectCatalog { objects })
    }

    /// A homogeneous catalog of `n` identical objects (the §4 database:
    /// 2000 objects × 3000 subobjects of the Table 3 media type).
    pub fn homogeneous(n: u32, media: MediaType, subobjects: u32) -> Self {
        let objects = (0..n)
            .map(|i| ObjectSpec::new(ObjectId(i), media.clone(), subobjects))
            .collect();
        ObjectCatalog::new(objects).expect("homogeneous catalog is always valid")
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True iff the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Looks up an object.
    pub fn get(&self, id: ObjectId) -> Result<&ObjectSpec> {
        self.objects.get(id.index()).ok_or(Error::UnknownObject(id))
    }

    /// Iterates over all objects.
    pub fn iter(&self) -> impl Iterator<Item = &ObjectSpec> {
        self.objects.iter()
    }

    /// Total database size.
    pub fn total_size(&self, b_disk: Bandwidth, fragment: Bytes) -> Bytes {
        self.objects.iter().map(|o| o.size(b_disk, fragment)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B_DISK: Bandwidth = Bandwidth::mbps(20);
    const CYL: Bytes = Bytes::new(1_512_000);

    #[test]
    fn degrees_match_paper_examples() {
        assert_eq!(MediaType::ntsc().degree_of_declustering(B_DISK), 3);
        assert_eq!(MediaType::ccir601().degree_of_declustering(B_DISK), 11);
        assert_eq!(MediaType::hdtv().degree_of_declustering(B_DISK), 40);
        assert_eq!(MediaType::table3().degree_of_declustering(B_DISK), 5);
        // §3.1: Y at 120 mbps → 6, Z at 60 mbps → 3.
        let y = MediaType::new("Y", Bandwidth::mbps(120));
        let z = MediaType::new("Z", Bandwidth::mbps(60));
        assert_eq!(y.degree_of_declustering(B_DISK), 6);
        assert_eq!(z.degree_of_declustering(B_DISK), 3);
    }

    #[test]
    fn table3_object_dimensions() {
        let o = ObjectSpec::new(ObjectId(0), MediaType::table3(), 3000);
        assert_eq!(o.degree(B_DISK), 5);
        assert_eq!(o.subobject_size(B_DISK, CYL), Bytes::new(7_560_000));
        assert_eq!(o.size(B_DISK, CYL), Bytes::new(22_680_000_000));
        // Paper: display time 1814 s (30 min 14 s).
        let t = o.display_time(B_DISK, CYL).as_secs_f64();
        assert!((t - 1814.4).abs() < 0.1, "display time {t}");
        // Time interval = 0.6048 s.
        let iv = o.interval(B_DISK, CYL).as_secs_f64();
        assert!((iv - 0.6048).abs() < 1e-6, "interval {iv}");
    }

    #[test]
    fn interval_is_independent_of_media_rate_given_same_fragment() {
        // §3.2: "the duration of a time interval is constant for all
        // multimedia objects" because the fragment size is global.
        // An M=4 object at 80 mbps and an M=2 object at 40 mbps share the
        // same interval.
        let hi = ObjectSpec::new(ObjectId(0), MediaType::new("Y", Bandwidth::mbps(80)), 10);
        let lo = ObjectSpec::new(ObjectId(1), MediaType::new("Z", Bandwidth::mbps(40)), 10);
        assert_eq!(hi.interval(B_DISK, CYL), lo.interval(B_DISK, CYL));
        // But the subobject sizes differ by the bandwidth ratio.
        assert_eq!(
            hi.subobject_size(B_DISK, CYL),
            lo.subobject_size(B_DISK, CYL) * 2
        );
    }

    #[test]
    fn catalog_table3_statistics() {
        let cat = ObjectCatalog::homogeneous(2000, MediaType::table3(), 3000);
        assert_eq!(cat.len(), 2000);
        // Database ≈ 45.36 TB ≈ 10 × the 1000-disk farm capacity (§4.1).
        let db = cat.total_size(B_DISK, CYL);
        let farm = Bytes::new(4_536_000_000) * 1000;
        assert_eq!(db.as_u64(), farm.as_u64() * 10);
    }

    #[test]
    fn catalog_rejects_sparse_ids_and_degenerate_objects() {
        let m = MediaType::table3();
        let sparse = vec![ObjectSpec::new(ObjectId(1), m.clone(), 10)];
        assert!(ObjectCatalog::new(sparse).is_err());
        let empty_obj = vec![ObjectSpec::new(ObjectId(0), m.clone(), 0)];
        assert!(ObjectCatalog::new(empty_obj).is_err());
        let zero_bw = vec![ObjectSpec::new(
            ObjectId(0),
            MediaType::new("null", Bandwidth::ZERO),
            10,
        )];
        assert!(ObjectCatalog::new(zero_bw).is_err());
    }

    #[test]
    fn catalog_lookup() {
        let cat = ObjectCatalog::homogeneous(3, MediaType::table3(), 5);
        assert!(cat.get(ObjectId(2)).is_ok());
        assert_eq!(cat.get(ObjectId(3)), Err(Error::UnknownObject(ObjectId(3))));
        assert!(!cat.is_empty());
        assert_eq!(cat.iter().count(), 3);
    }
}
