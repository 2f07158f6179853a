//! Proxy-to-proxy co-location detection (§8.1).
//!
//! "We are experimenting with an additional technique for detecting
//! proxies in the same data center, in which we measure round-trip times
//! to each proxy from each other proxy. Pilot tests indicate that some
//! groups of proxies (including proxies claimed to be in separate
//! countries) show less than 5 ms round-trip times among themselves,
//! which practically guarantees they are on the same local network."
//!
//! We can't run code on the proxies, but we can connect *through* proxy A
//! *to* proxy B (VPN servers accept TCP on their service ports), observe
//! `RTT(client↔A) + RTT(A↔B)`, and subtract the tunnel leg with the usual
//! η·self-ping correction — leaving `RTT(A↔B)`. Pairs under the threshold
//! are merged with union-find into same-LAN groups.

use crate::providers::DeployedProxy;
use geoloc::proxy::correct_indirect_rtt;
use netsim::{Network, NodeId};

/// The paper's same-local-network threshold, ms.
pub const SAME_LAN_RTT_MS: f64 = 5.0;

/// Estimate `RTT(A↔B)` by tunnelling through A to B and subtracting A's
/// tunnel leg. Minimum of `attempts`; `None` if unmeasurable.
pub fn proxy_pair_rtt_ms(
    network: &mut Network,
    client: NodeId,
    proxy_a: NodeId,
    proxy_b: NodeId,
    self_ping_a_ms: f64,
    eta: f64,
    attempts: usize,
) -> Option<f64> {
    let mut best: Option<f64> = None;
    for _ in 0..attempts {
        if let Some(rtt) = network.tcp_connect_via_proxy_rtt(client, proxy_a, proxy_b, 443) {
            let corrected = correct_indirect_rtt(rtt.as_ms(), self_ping_a_ms, eta);
            best = Some(best.map_or(corrected, |b: f64| b.min(corrected)));
        }
    }
    best
}

/// A detected same-LAN group: indices into the proxy list.
pub type ColocationGroup = Vec<usize>;

/// Detect same-data-center groups among the proxies by all-pairs
/// corrected RTT under `threshold_ms`. Returns groups of size ≥ 2,
/// largest first.
///
/// `self_pings[i]` must hold each proxy's minimum tunnel self-ping (the
/// audit already measures these). Cost is O(n²) tunnel measurements, so
/// callers subsample large fleets as the paper's pilot did.
pub fn detect_same_lan_groups(
    network: &mut Network,
    client: NodeId,
    proxies: &[DeployedProxy],
    self_pings: &[f64],
    eta: f64,
    attempts: usize,
    threshold_ms: f64,
) -> Vec<ColocationGroup> {
    assert_eq!(proxies.len(), self_pings.len(), "self-ping per proxy");
    let n = proxies.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for a in 0..n {
        for b in (a + 1)..n {
            // Skip pairs already known connected (transitivity saves
            // measurements — the point of union-find here).
            if find(&mut parent, a) == find(&mut parent, b) {
                continue;
            }
            let Some(rtt) = proxy_pair_rtt_ms(
                network,
                client,
                proxies[a].node,
                proxies[b].node,
                self_pings[a],
                eta,
                attempts,
            ) else {
                continue;
            };
            if rtt < threshold_ms {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                parent[ra] = rb;
            }
        }
    }
    let mut groups: std::collections::HashMap<usize, Vec<usize>> = Default::default();
    for i in 0..n {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(i);
    }
    let mut out: Vec<ColocationGroup> =
        groups.into_values().filter(|g| g.len() >= 2).collect();
    out.sort_by_key(|g| std::cmp::Reverse(g.len()));
    for g in &mut out {
        g.sort_unstable();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::Study;
    use crate::config::StudyConfig;
    use geoloc::proxy::ProxyContext;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    /// The shared study, locked (tests probe it mutably). A panicking
    /// test must not poison it for the rest of the suite.
    fn study() -> MutexGuard<'static, Study> {
        static S: OnceLock<Mutex<Study>> = OnceLock::new();
        S.get_or_init(|| {
            Mutex::new(Study::build(StudyConfig {
                total_proxies: 40,
                ..StudyConfig::small(321)
            }))
        })
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn detects_true_datacenter_groups() {
        let mut s = study();
        let client = s.client;
        let proxies = s.providers.proxies.clone();
        let mut self_pings = Vec::with_capacity(proxies.len());
        for p in &proxies {
            let ctx = ProxyContext::establish(s.world.network_mut(), client, p.node, 0.5, 6)
                .expect("tunnel up");
            self_pings.push(ctx.self_ping_ms);
        }
        let groups = detect_same_lan_groups(
            s.world.network_mut(),
            client,
            &proxies,
            &self_pings,
            0.5,
            3,
            SAME_LAN_RTT_MS,
        );
        assert!(!groups.is_empty(), "no co-located groups found");

        // Every detected pair must actually be near each other (the
        // paper's point: same local network ⇒ same physical place).
        for g in &groups {
            for w in g.windows(2) {
                let d = proxies[w[0]]
                    .true_location
                    .distance_km(&proxies[w[1]].true_location);
                assert!(
                    d < 400.0,
                    "grouped proxies {d:.0} km apart — false positive"
                );
            }
        }

        // And the known ground-truth racks (same provider, same hub) are
        // found: any two proxies with the same group_key belong to the
        // same detected group.
        use std::collections::HashMap;
        let mut truth_groups: HashMap<_, Vec<usize>> = HashMap::new();
        for (i, p) in proxies.iter().enumerate() {
            truth_groups.entry(p.group_key).or_default().push(i);
        }
        let group_of = |i: usize| groups.iter().position(|g| g.contains(&i));
        for members in truth_groups.values().filter(|m| m.len() >= 2) {
            let g0 = group_of(members[0]);
            assert!(g0.is_some(), "rack member not in any detected group");
            for &m in &members[1..] {
                assert_eq!(
                    group_of(m),
                    g0,
                    "same-rack proxies split across detected groups"
                );
            }
        }
    }

    #[test]
    fn cross_provider_colocation_is_visible() {
        // Different providers renting space in the same hub city end up
        // in the same detected group — "including proxies claimed to be
        // in separate countries" (§8.1).
        let mut s = study();
        let client = s.client;
        let proxies = s.providers.proxies.clone();
        let mut self_pings = Vec::with_capacity(proxies.len());
        for p in &proxies {
            let ctx = ProxyContext::establish(s.world.network_mut(), client, p.node, 0.5, 6)
                .expect("tunnel up");
            self_pings.push(ctx.self_ping_ms);
        }
        let groups = detect_same_lan_groups(
            s.world.network_mut(),
            client,
            &proxies,
            &self_pings,
            0.5,
            3,
            SAME_LAN_RTT_MS,
        );
        let mixed_provider = groups.iter().any(|g| {
            let first = proxies[g[0]].provider;
            g.iter().any(|&i| proxies[i].provider != first)
        });
        let mixed_claims = groups.iter().any(|g| {
            let first = proxies[g[0]].claimed;
            g.iter().any(|&i| proxies[i].claimed != first)
        });
        assert!(
            mixed_provider || mixed_claims,
            "expected at least one group mixing providers or claims"
        );
    }
}
