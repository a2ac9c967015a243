//! One module per reproduced experiment.

pub mod ablation;
pub mod chaos;
pub mod comms;
pub mod faults;
pub mod fig1;
pub mod fig3;
pub mod fig5;
pub mod jobs;
pub mod lint;
pub mod metrics;
pub mod pipeline;
pub mod serve;
pub mod tables;
pub mod verify;
