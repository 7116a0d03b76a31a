//! Properties of arrival analysis: monotone under corner derating and
//! under netlist extension.

use drd_check::{prop, Rng};
use drd_liberty::{vlib90, Corner};
use drd_netlist::{Conn, Module, PortDir};
use drd_sta::TimingGraph;

fn chain(kinds: &[u8]) -> Module {
    let mut m = Module::new("c");
    m.add_port("a", PortDir::Input).unwrap();
    m.add_port("clk", PortDir::Input).unwrap();
    let clk = m.find_net("clk").unwrap();
    let mut prev = m.find_net("a").unwrap();
    for (i, &k) in kinds.iter().enumerate() {
        let z = m.add_net(format!("n{i}")).unwrap();
        let gate = match k % 4 {
            0 => "INVX1",
            1 => "BUFX1",
            2 => "AND2X1",
            _ => "XOR2X1",
        };
        if k % 4 < 2 {
            m.add_cell(
                format!("u{i}"),
                gate,
                &[("A", Conn::Net(prev)), ("Z", Conn::Net(z))],
            )
            .unwrap();
        } else {
            m.add_cell(
                format!("u{i}"),
                gate,
                &[
                    ("A", Conn::Net(prev)),
                    ("B", Conn::Net(prev)),
                    ("Z", Conn::Net(z)),
                ],
            )
            .unwrap();
        }
        prev = z;
    }
    let q = m.add_net("q").unwrap();
    m.add_cell(
        "r",
        "DFFX1",
        &[
            ("D", Conn::Net(prev)),
            ("CK", Conn::Net(clk)),
            ("Q", Conn::Net(q)),
        ],
    )
    .unwrap();
    m
}

fn kinds_strategy(min_len: usize) -> impl Fn(&mut Rng) -> Vec<u8> {
    move |rng| {
        let len = rng.range(min_len, 24);
        rng.bytes(len)
    }
}

#[test]
fn corner_scaling_is_exact() {
    let lib = vlib90::high_speed();
    prop(48, kinds_strategy(1), |kinds: &Vec<u8>| {
        if kinds.is_empty() {
            return Ok(());
        }
        let m = chain(kinds);
        let g = TimingGraph::build(&m, &lib).map_err(|e| e.to_string())?;
        let typ = g
            .arrivals(Corner::typical())
            .map_err(|e| e.to_string())?
            .max_endpoint_arrival();
        let worst = g
            .arrivals(Corner::worst())
            .map_err(|e| e.to_string())?
            .max_endpoint_arrival();
        let expected = typ * Corner::worst().delay_factor;
        if (worst - expected).abs() < 1e-9 {
            Ok(())
        } else {
            Err(format!("worst {worst} != typical×factor {expected}"))
        }
    });
}

#[test]
fn extending_a_chain_never_reduces_arrival() {
    let lib = vlib90::high_speed();
    prop(48, kinds_strategy(2), |kinds: &Vec<u8>| {
        if kinds.len() < 2 {
            return Ok(());
        }
        let arrival = |ks: &[u8]| -> Result<f64, String> {
            Ok(TimingGraph::build(&chain(ks), &lib)
                .map_err(|e| e.to_string())?
                .arrivals(Corner::typical())
                .map_err(|e| e.to_string())?
                .max_endpoint_arrival())
        };
        let shorter = arrival(&kinds[..kinds.len() - 1])?;
        let longer = arrival(kinds)?;
        if longer >= shorter - 1e-9 {
            Ok(())
        } else {
            Err(format!("{longer} < {shorter}"))
        }
    });
}

#[test]
fn critical_path_is_monotone() {
    let lib = vlib90::high_speed();
    prop(48, kinds_strategy(1), |kinds: &Vec<u8>| {
        if kinds.is_empty() {
            return Ok(());
        }
        let m = chain(kinds);
        let g = TimingGraph::build(&m, &lib).map_err(|e| e.to_string())?;
        let arr = g.arrivals(Corner::typical()).map_err(|e| e.to_string())?;
        let path = arr.critical_path();
        if path.is_empty() {
            return Err("empty critical path".into());
        }
        for w in path.windows(2) {
            if w[1].arrival < w[0].arrival {
                return Err(format!(
                    "arrival drops: {} -> {}",
                    w[0].arrival, w[1].arrival
                ));
            }
        }
        Ok(())
    });
}
