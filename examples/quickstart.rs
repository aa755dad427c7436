//! Quickstart: verify a small program on a FlexStep dual-core platform,
//! then corrupt the forwarded data with a declarative fault plan and
//! watch the checker catch it — all through the `Scenario` front door.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use flexstep::core::{FabricConfig, FaultPlan, Scenario, Topology};
use flexstep::isa::{asm::Assembler, XReg};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Write a guest program with the built-in assembler: a checksum
    //    loop that reads and writes memory.
    let mut asm = Assembler::new("checksum");
    asm.data_label("buf")?;
    asm.data_u64s(&(0..256u64).map(|i| i * i + 1).collect::<Vec<_>>());
    asm.la(XReg::A1, "buf");
    asm.li(XReg::A2, 256); // words
    asm.li(XReg::A0, 0); // checksum
    asm.label("loop")?;
    asm.ld(XReg::A3, XReg::A1, 0);
    asm.add(XReg::A0, XReg::A0, XReg::A3);
    asm.sd(XReg::A1, XReg::A0, 0); // running checksum back into the buffer
    asm.addi(XReg::A1, XReg::A1, 8);
    asm.addi(XReg::A2, XReg::A2, -1);
    asm.bnez(XReg::A2, "loop");
    asm.ecall();
    let program = asm.finish()?;

    // 2. Clean run: core 0 executes, core 1 replays and verifies every
    //    checking segment (SCP → log → IC → ECP, §III of the paper).
    let mut run = Scenario::new(&program)
        .cores(2)
        .topology(Topology::PairedLockstep)
        .fabric(FabricConfig::paper())
        .build()?;
    let report = run.run_to_completion(10_000_000);
    println!("— clean run —");
    println!("  retired          : {} instructions", report.retired);
    println!("  finished at      : cycle {}", report.main_finish_cycle);
    println!("  segments checked : {}", report.segments_checked);
    println!("  segments failed  : {}", report.segments_failed);
    assert_eq!(report.segments_failed, 0);

    // 3. Faulty run: the fault plan arms at cycle 5 000 and flips one
    //    bit in the in-flight forwarded data as soon as the stream
    //    carries a packet. The checker must detect the divergence; the
    //    recorded event stream keeps the whole protocol for afterwards.
    let mut run = Scenario::new(&program)
        .cores(2)
        .fault_plan(FaultPlan::random_with_seed(5_000, 1))
        .record_events()
        .build()?;
    let clock = run.clock();
    let report = run.run_to_completion(10_000_000);
    println!("— faulty run —");
    let injected = report
        .injections
        .first()
        .expect("the plan fires once data is in flight");
    println!(
        "  injected         : {} bit(s) {:?} @ cycle {}",
        injected.target, injected.bits, injected.at_cycle
    );
    match report.detections.first() {
        Some(d) => {
            let latency = d.detected_at - injected.at_cycle;
            println!("  detected         : {}", d.kind);
            println!(
                "  latency          : {} cycles ({:.2} µs at 1.6 GHz)",
                latency,
                clock.cycles_to_us(latency)
            );
        }
        None => println!("  fault was architecturally masked (dead value)"),
    }
    let events = run.events().map_or(0, <[_]>::len);
    println!(
        "  summary          : {} segments checked, {} failed, {} detection(s), {} events recorded",
        report.segments_checked,
        report.segments_failed,
        report.detections.len(),
        events
    );
    Ok(())
}
