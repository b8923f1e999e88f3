//! Quickstart: place one movie with staggered striping, admit a display,
//! and walk its first few time intervals.
//!
//! Run with: `cargo run --example quickstart`

use staggered_striping::prelude::*;

fn main() -> Result<()> {
    // A small farm: 12 disks of the paper's Table 3 type, stride 1.
    let disk = DiskParams::table3();
    let config = StripingConfig {
        disks: 12,
        stride: 1,
        fragment: disk.cylinder_capacity,
        b_disk: disk.effective_bandwidth(disk.cylinder_capacity),
        parity_group: None,
    };
    println!(
        "farm: {} disks, fragment {}, effective B_disk {}",
        config.disks, config.fragment, config.b_disk
    );

    // One 60 mbps movie (degree of declustering M = 3) of 24 subobjects.
    let movie = ObjectSpec::new(
        ObjectId(0),
        MediaType::new("demo movie", Bandwidth::mbps(60)),
        24,
    );
    println!(
        "movie: {} needs M = {} disks per interval, {} total, display time {}",
        movie.media.name,
        movie.degree(config.b_disk),
        movie.size(config.b_disk, config.fragment),
        movie.display_time(config.b_disk, config.fragment),
    );

    // Place it: each fragment gets a disk and is charged to its capacity.
    let mut placement = PlacementMap::new(config.clone(), disk.cylinders, 1)?;
    let layout = placement.place_at(&movie, 4)?;
    println!("\nfirst three subobjects land on:");
    for sub in 0..3 {
        let disks: Vec<String> = (0..layout.degree)
            .map(|f| layout.fragment_disk(sub, f).to_string())
            .collect();
        println!("  subobject {sub}: {}", disks.join(", "));
    }

    // Admit a display through the rotating virtual-disk frame.
    let mut scheduler = IntervalScheduler::new(VirtualFrame::new(config.disks, config.stride));
    let grant = scheduler.try_admit(
        0,
        movie.id,
        layout.start_disk,
        layout.degree,
        movie.subobjects,
        AdmissionPolicy::Contiguous,
    )?;
    println!(
        "\nadmitted: virtual disks {:?}, delivery starts at interval {}",
        grant.virtual_disks, grant.delivery_start
    );

    // Walk the first intervals: the physical disks shift right by the
    // stride each interval while the virtual assignment stays fixed.
    println!("\ninterval -> physical disks read this interval:");
    for t in 0..5u64 {
        let phys: Vec<String> = grant
            .virtual_disks
            .iter()
            .map(|&v| format!("disk{}", scheduler.frame().physical(v, t)))
            .collect();
        println!("  t={t}: {}", phys.join(", "));
    }
    println!("\n(compare: subobject t lives on exactly those disks — no hiccups.)");
    Ok(())
}
