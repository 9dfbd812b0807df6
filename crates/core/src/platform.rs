//! The evaluated system configurations.
//!
//! The paper compares HiveMind against fully centralized platforms (IaaS
//! and FaaS backends) and a fully distributed edge platform, plus the
//! Fig. 13 ablations that enable individual HiveMind techniques on the
//! baselines.

use hivemind_accel::rpc_accel::accelerated_rpc_profile;
use hivemind_faas::cluster::ClusterParams;
use hivemind_faas::dataplane::ExchangeProtocol;
use hivemind_faas::iaas::FixedPoolParams;
use hivemind_net::rpc::RpcProfile;

/// A swarm-coordination platform configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// All computation in the cloud on statically reserved resources of
    /// cost equal to the FaaS deployment (Fig. 1's "Centralized IaaS").
    CentralizedIaaS,
    /// All computation in the cloud on OpenWhisk-style serverless.
    CentralizedFaaS,
    /// All computation on the devices; only final outputs are uploaded.
    DistributedEdge,
    /// The full HiveMind stack: hybrid placement, HiveMind scheduler,
    /// long keep-alive, FPGA remote memory + RPC acceleration, straggler
    /// mitigation.
    HiveMind,
    /// Ablation: centralized FaaS + network (RPC) acceleration only.
    CentralizedNetAccel,
    /// Ablation: centralized FaaS + network + remote-memory acceleration.
    CentralizedNetRemoteMem,
    /// Ablation: distributed edge, but result transfers use accelerated
    /// RPCs.
    DistributedNetAccel,
    /// Ablation: HiveMind's software stack (hybrid placement, scheduler,
    /// keep-alive) without any hardware acceleration.
    HiveMindNoAccel,
}

impl Platform {
    /// The main four platforms of Figs. 1/11/14.
    pub const MAIN: [Platform; 4] = [
        Platform::CentralizedIaaS,
        Platform::CentralizedFaaS,
        Platform::DistributedEdge,
        Platform::HiveMind,
    ];

    /// The Fig. 13 ablation lineup.
    pub const ABLATIONS: [Platform; 6] = [
        Platform::HiveMind,
        Platform::CentralizedNetAccel,
        Platform::CentralizedNetRemoteMem,
        Platform::DistributedEdge,
        Platform::DistributedNetAccel,
        Platform::HiveMindNoAccel,
    ];

    /// Display label (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            Platform::CentralizedIaaS => "Centralized IaaS",
            Platform::CentralizedFaaS => "Centralized Cloud",
            Platform::DistributedEdge => "Distributed Edge",
            Platform::HiveMind => "HiveMind",
            Platform::CentralizedNetAccel => "Centr-Net Accel",
            Platform::CentralizedNetRemoteMem => "+Remote Mem",
            Platform::DistributedNetAccel => "Distr-Net Accel",
            Platform::HiveMindNoAccel => "HiveMind-No Accel",
        }
    }

    /// Whether per-frame tasks run on the devices by default.
    pub fn is_distributed(self) -> bool {
        matches!(
            self,
            Platform::DistributedEdge | Platform::DistributedNetAccel
        )
    }

    /// Whether placement is hybrid (HiveMind's synthesis decides per app).
    pub fn is_hybrid(self) -> bool {
        matches!(self, Platform::HiveMind | Platform::HiveMindNoAccel)
    }

    /// Whether cloud execution uses the statically provisioned pool.
    pub fn uses_fixed_pool(self) -> bool {
        self == Platform::CentralizedIaaS
    }

    /// Whether the server-side RPC stack is FPGA-offloaded.
    pub fn network_accelerated(self) -> bool {
        matches!(
            self,
            Platform::HiveMind
                | Platform::CentralizedNetAccel
                | Platform::CentralizedNetRemoteMem
                | Platform::DistributedNetAccel
        )
    }

    /// Whether function data exchange uses the remote-memory fabric.
    pub fn remote_memory(self) -> bool {
        matches!(self, Platform::HiveMind | Platform::CentralizedNetRemoteMem)
    }

    /// Server-side per-message RPC processing profile.
    pub fn cloud_rpc_profile(self) -> RpcProfile {
        if self.network_accelerated() {
            accelerated_rpc_profile()
        } else {
            RpcProfile::software()
        }
    }

    /// FaaS cluster parameters, or `None` when the platform does not run
    /// a serverless cluster (fixed pool / pure distributed upload sink).
    pub fn cluster_params(
        self,
        servers: u32,
        cores_per_server: u32,
        fault_rate: f64,
    ) -> Option<ClusterParams> {
        let preset = match self {
            Platform::CentralizedIaaS
            | Platform::DistributedEdge
            | Platform::DistributedNetAccel => return None,
            Platform::CentralizedFaaS
            | Platform::CentralizedNetAccel
            | Platform::CentralizedNetRemoteMem => {
                let exchange = if self.remote_memory() {
                    ExchangeProtocol::RemoteMemory
                } else {
                    ExchangeProtocol::CouchDb
                };
                ClusterParams {
                    exchange,
                    ..ClusterParams::default()
                }
            }
            Platform::HiveMind => ClusterParams::hivemind(),
            Platform::HiveMindNoAccel => ClusterParams::hivemind_no_accel(),
        };
        Some(ClusterParams {
            servers,
            cores_per_server,
            fault_rate,
            ..preset
        })
    }

    /// Fixed-pool parameters for the IaaS platform: reserved cores of
    /// "equal cost" to the FaaS deployment — we give it a fixed fraction
    /// of the cluster (the FaaS deployment's average occupancy).
    pub fn fixed_pool_params(self, total_cores: u32) -> FixedPoolParams {
        FixedPoolParams {
            // "Equal cost" to the FaaS deployment's average occupancy:
            // a small reserved slice of the cluster, which saturates under
            // swarm-scale load exactly as Fig. 5a/5b's fixed deployments do.
            workers: (total_cores / 160).max(2),
            exchange: ExchangeProtocol::DirectRpc,
        }
    }

    /// The fraction of sensor payload shipped to the cloud for
    /// cloud-placed per-frame tasks. Hybrid platforms decompose tasks so
    /// a cheap on-device tier filters non-salient data first (Sec. 4.2's
    /// hybrid execution), cutting uplink traffic roughly in half.
    pub fn upload_fraction(self) -> f64 {
        if self.is_hybrid() {
            0.55
        } else {
            1.0
        }
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn main_platforms_cover_fig1() {
        assert_eq!(Platform::MAIN.len(), 4);
        assert_eq!(Platform::ABLATIONS.len(), 6);
    }

    #[test]
    fn hivemind_uses_all_techniques() {
        let p = Platform::HiveMind;
        assert!(p.is_hybrid());
        assert!(p.network_accelerated());
        assert!(p.remote_memory());
        let params = p.cluster_params(12, 40, 0.0).unwrap();
        assert!(params.straggler_mitigation);
        assert_eq!(params.exchange, ExchangeProtocol::RemoteMemory);
        assert_eq!(p.cloud_rpc_profile(), accelerated_rpc_profile());
    }

    #[test]
    fn no_accel_keeps_software_paths() {
        let p = Platform::HiveMindNoAccel;
        assert!(p.is_hybrid());
        assert!(!p.network_accelerated());
        assert!(!p.remote_memory());
        assert_eq!(p.cloud_rpc_profile(), RpcProfile::software());
        // Fig. 13's one-technique ablation: only the data plane differs.
        let hivemind = Platform::HiveMind.cluster_params(12, 40, 0.0).unwrap();
        assert_eq!(
            p.cluster_params(12, 40, 0.0).unwrap(),
            ClusterParams {
                exchange: ExchangeProtocol::CouchDb,
                ..hivemind
            }
        );
    }

    #[test]
    fn distributed_platforms_have_no_cluster() {
        assert!(Platform::DistributedEdge
            .cluster_params(12, 40, 0.0)
            .is_none());
        assert!(Platform::DistributedNetAccel
            .cluster_params(12, 40, 0.0)
            .is_none());
        assert!(Platform::CentralizedIaaS
            .cluster_params(12, 40, 0.0)
            .is_none());
    }

    #[test]
    fn accelerated_rpc_is_cheaper() {
        let fast = Platform::HiveMind.cloud_rpc_profile();
        let slow = Platform::CentralizedFaaS.cloud_rpc_profile();
        assert!(slow.mean_one_way_secs(1024) > fast.mean_one_way_secs(1024) * 10.0);
    }

    #[test]
    fn hybrid_platforms_filter_uploads() {
        assert!(Platform::HiveMind.upload_fraction() < 1.0);
        assert_eq!(Platform::CentralizedFaaS.upload_fraction(), 1.0);
    }

    #[test]
    fn iaas_pool_sized_below_cluster() {
        let pool = Platform::CentralizedIaaS.fixed_pool_params(480);
        assert!(pool.workers >= 2 && pool.workers < 480);
    }
}
