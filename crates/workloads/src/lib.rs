//! # scbr-workloads
//!
//! Synthetic datasets reproducing the SCBR paper's evaluation workloads
//! (Table 1).
//!
//! The paper reused the datasets of Barazzutti et al. (DEBS '12): roughly
//! 250 000 stock quotes collected from Yahoo! Finance over five years,
//! with 8–11 attributes per publication, from which nine synthetic
//! subscription datasets were derived. The original data is not
//! redistributable, so this crate synthesises a statistically equivalent
//! market ([`market`]) and implements the nine recipes ([`recipes`]):
//!
//! | name | equality predicates | attributes | value selection |
//! |------|--------------------|------------|-----------------|
//! | `e100a1` | 100 % : 1 | 8–11 | uniform |
//! | `e80a1`  | 20 % : 0, 80 % : 1 | 8–11 | uniform |
//! | `e80a2`  | same | 2× | uniform |
//! | `e80a4`  | same | 4× | uniform |
//! | `extsub2` | 15/60/15/10 % : 0/1/2/3 | 2× | uniform |
//! | `extsub4` | same | 4× | uniform |
//! | `e80a1z100` | 20 % : 0, 80 % : 1 | 8–11 | Zipf on symbol |
//! | `e80a1zz100` | same | 8–11 | Zipf on all attributes |
//! | `e100a1zz100` | 100 % : 1 | 8–11 | Zipf on all attributes |
//!
//! What matters for reproduction is the *structure* these recipes induce:
//! all-equality workloads over hot symbols build deep containment trees
//! (fast poset matching), attribute-multiplied workloads spread constraints
//! over 2–4× more attributes and flatten the forest (slow matching) —
//! the spread Figures 6 and 7 measure.
//!
//! ```
//! use scbr_workloads::{StockMarket, MarketConfig, recipes::Workload};
//!
//! let market = StockMarket::generate(&MarketConfig::small(), 1);
//! let workload = Workload::by_name("e100a1").unwrap();
//! let subs = workload.subscriptions(&market, 100, 7);
//! let pubs = workload.publications(&market, 10, 8);
//! assert_eq!(subs.len(), 100);
//! assert_eq!(pubs.len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod market;
pub mod pushfeed;
pub mod recipes;
pub mod stats;
pub mod zipf;

pub use market::{MarketConfig, Quote, StockMarket};
pub use pushfeed::{PushFeed, PushFeedConfig};
pub use recipes::{Workload, WorkloadName};
pub use zipf::Zipf;
