//! The S1–S10 benchmark suite: identities and calibrated cost profiles.
//!
//! A *task* is the unit the paper measures — e.g. "recognize the faces in
//! a one-second frame batch" (Sec. 3.2). Each app's profile gives the
//! cloud-core service time for one task, the bytes shipped in and out, and
//! the knobs that shape the figures:
//!
//! * `edge_slowdown`: on-device execution cost multiplier. Heavy vision
//!   apps are ~an order of magnitude slower on the 1 GHz Cortex-A8;
//!   lightweight analytics (S3, S7) run comparably at cloud and edge —
//!   the paper's three exceptions in Fig. 4.
//! * `intra_parallelism`: how many serverless functions one task can fan
//!   out into (Fig. 5a's "serverless (intra-task)" bars; dramatic for S9
//!   text recognition and S10 SLAM).
//! * `edge_pinned`: obstacle avoidance (S4) always runs on-board "to
//!   avoid catastrophic failures due to long network delays" (Sec. 2.1).

use hivemind_faas::types::{AppId, AppProfile};
use hivemind_sim::dist::Dist;

/// One of the ten benchmark applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum App {
    /// S1 — face recognition (FaceNet).
    FaceRecognition,
    /// S2 — tree recognition (TensorFlow Model Zoo CNN).
    TreeRecognition,
    /// S3 — drone detection (SVM on the orange tags).
    DroneDetection,
    /// S4 — obstacle avoidance (ardrone-autonomy framework).
    ObstacleAvoidance,
    /// S5 — people deduplication (FaceNet embedding distances).
    PeopleDedup,
    /// S6 — maze traversal (Wall Follower).
    Maze,
    /// S7 — weather analytics from temperature/humidity sensors.
    WeatherAnalytics,
    /// S8 — soil analytics from images + humidity.
    SoilAnalytics,
    /// S9 — text recognition (image-to-text on signs).
    TextRecognition,
    /// S10 — simultaneous localization and mapping.
    Slam,
}

impl App {
    /// All ten apps in S1…S10 order.
    pub const ALL: [App; 10] = [
        App::FaceRecognition,
        App::TreeRecognition,
        App::DroneDetection,
        App::ObstacleAvoidance,
        App::PeopleDedup,
        App::Maze,
        App::WeatherAnalytics,
        App::SoilAnalytics,
        App::TextRecognition,
        App::Slam,
    ];

    /// The paper's short label ("S1" … "S10").
    pub fn label(self) -> &'static str {
        match self {
            App::FaceRecognition => "S1",
            App::TreeRecognition => "S2",
            App::DroneDetection => "S3",
            App::ObstacleAvoidance => "S4",
            App::PeopleDedup => "S5",
            App::Maze => "S6",
            App::WeatherAnalytics => "S7",
            App::SoilAnalytics => "S8",
            App::TextRecognition => "S9",
            App::Slam => "S10",
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            App::FaceRecognition => "Face Recognition",
            App::TreeRecognition => "Tree Recognition",
            App::DroneDetection => "Drone Detection",
            App::ObstacleAvoidance => "Obstacle Avoidance",
            App::PeopleDedup => "People Deduplication",
            App::Maze => "Maze",
            App::WeatherAnalytics => "Weather Analytics",
            App::SoilAnalytics => "Soil Analytics",
            App::TextRecognition => "Text Recognition",
            App::Slam => "SLAM",
        }
    }

    /// The FaaS registry id (stable: S1 → 0 … S10 → 9): the enum
    /// discriminant, which declaration order keeps equal to the app's
    /// index in [`App::ALL`].
    pub fn app_id(self) -> AppId {
        AppId(self as u16)
    }

    /// Recovers an app from its [`AppId`], if in range.
    pub fn from_app_id(id: AppId) -> Option<App> {
        App::ALL.get(id.0 as usize).copied()
    }

    /// Calibrated cloud-execution profile for one task.
    pub fn cloud_profile(self) -> AppProfile {
        // (median_exec_s, sigma, input_bytes, output_bytes, memory_mb)
        let (median, sigma, input, output, mem) = match self {
            App::FaceRecognition => (0.250, 0.35, 2_000_000, 10_000, 1024),
            App::TreeRecognition => (0.300, 0.35, 2_000_000, 8_000, 1024),
            App::DroneDetection => (0.040, 0.25, 500_000, 2_000, 256),
            App::ObstacleAvoidance => (0.030, 0.25, 500_000, 1_000, 256),
            App::PeopleDedup => (0.350, 0.40, 200_000, 5_000, 768),
            App::Maze => (0.450, 0.30, 100_000, 1_000, 128),
            App::WeatherAnalytics => (0.015, 0.25, 20_000, 1_000, 128),
            App::SoilAnalytics => (0.120, 0.30, 1_000_000, 2_000, 512),
            App::TextRecognition => (0.500, 0.40, 2_000_000, 5_000, 1024),
            App::Slam => (0.600, 0.40, 2_500_000, 50_000, 2048),
        };
        AppProfile {
            name: self.name(),
            exec: Dist::lognormal_median_sigma(median, sigma),
            input_bytes: input,
            output_bytes: output,
            memory_mb: mem,
        }
    }

    /// On-device execution cost multiplier relative to one cloud core.
    ///
    /// Compute-heavy vision models suffer the full Cortex-A8 penalty;
    /// S3 and S7 "behave comparably on the cloud and edge due to their
    /// modest resource needs" (Sec. 2.3).
    pub fn edge_slowdown(self) -> f64 {
        match self {
            App::DroneDetection => 1.6,
            App::WeatherAnalytics => 1.4,
            App::ObstacleAvoidance => 1.8,
            App::Maze => 3.0,
            App::SoilAnalytics => 6.0,
            App::FaceRecognition | App::TreeRecognition | App::PeopleDedup => 10.0,
            App::TextRecognition => 12.0,
            App::Slam => 14.0,
        }
    }

    /// How many functions one task fans into when intra-task parallelism
    /// is enabled (Fig. 5a).
    pub fn intra_parallelism(self) -> u32 {
        match self {
            App::TextRecognition | App::Slam => 8,
            App::FaceRecognition | App::TreeRecognition => 4,
            App::PeopleDedup | App::SoilAnalytics => 2,
            // "The maze traversal, and the weather and soil analytics do
            // not significantly benefit from fine-grained parallelism."
            App::Maze | App::WeatherAnalytics | App::DroneDetection | App::ObstacleAvoidance => 1,
        }
    }

    /// Whether this task must stay on the device (S4: flight safety).
    pub fn edge_pinned(self) -> bool {
        self == App::ObstacleAvoidance
    }

    /// Tasks generated per second per device at the default frame rate.
    pub fn tasks_per_sec(self) -> f64 {
        match self {
            // Drones move slowly in the maze, so fewer tasks per second.
            App::Maze => 0.3,
            _ => 1.0,
        }
    }

    /// Synchronization fan-in: deduplication gathers the whole swarm's
    /// recognition output at a barrier before it can run (`sync='all'` in
    /// Listing 3).
    pub fn requires_sync_barrier(self) -> bool {
        self == App::PeopleDedup
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.label(), self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_roundtrip() {
        for (i, app) in App::ALL.iter().enumerate() {
            assert_eq!(app.app_id(), AppId(i as u16));
            assert_eq!(App::from_app_id(AppId(i as u16)), Some(*app));
        }
        assert_eq!(App::from_app_id(AppId(10)), None);
    }

    #[test]
    fn labels_follow_paper_order() {
        assert_eq!(App::FaceRecognition.label(), "S1");
        assert_eq!(App::Slam.label(), "S10");
        assert_eq!(App::ALL.len(), 10);
    }

    #[test]
    fn heavy_apps_are_heavier_than_light_apps() {
        let heavy = App::Slam.cloud_profile().exec.mean_secs();
        let light = App::WeatherAnalytics.cloud_profile().exec.mean_secs();
        assert!(heavy > 20.0 * light);
    }

    #[test]
    fn edge_comparable_apps_have_small_slowdown() {
        // The paper's exceptions: S3 and S7 comparable, S4 better at edge.
        assert!(App::DroneDetection.edge_slowdown() < 2.0);
        assert!(App::WeatherAnalytics.edge_slowdown() < 2.0);
        assert!(App::FaceRecognition.edge_slowdown() >= 10.0);
    }

    #[test]
    fn obstacle_avoidance_is_pinned_to_edge() {
        assert!(App::ObstacleAvoidance.edge_pinned());
        assert_eq!(
            App::ALL.iter().filter(|a| a.edge_pinned()).count(),
            1,
            "only S4 is pinned"
        );
    }

    #[test]
    fn parallelism_matches_paper_observations() {
        assert_eq!(App::TextRecognition.intra_parallelism(), 8);
        assert_eq!(App::Slam.intra_parallelism(), 8);
        assert_eq!(App::Maze.intra_parallelism(), 1);
        assert_eq!(App::WeatherAnalytics.intra_parallelism(), 1);
    }

    #[test]
    fn dedup_requires_barrier() {
        assert!(App::PeopleDedup.requires_sync_barrier());
        assert!(!App::FaceRecognition.requires_sync_barrier());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(App::Maze.to_string(), "S6 (Maze)");
    }
}
