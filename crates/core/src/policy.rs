//! Access rules and the policy store — §2, Definitions 2 and 3.
//!
//! * An **access condition** `(o, p)` names the resource owner `o` and a
//!   path expression `p`; a requester satisfies it when a walk from `o`
//!   to the requester matches `p`.
//! * An **access rule** `(rid, ACS)` attaches a *set* of access
//!   conditions to a resource; the rule is satisfied when **all** of its
//!   conditions hold (§2: *"In order to be valid, an access rule should
//!   have all its access conditions validated"*).
//! * A resource may carry several rules; access is granted when **at
//!   least one** rule is fully satisfied (rules are alternative
//!   audiences — the paper does not legislate multi-rule combination, so
//!   we adopt the permissive-disjunction reading and document it).
//! * With **no** rules a resource is private: only its owner may access
//!   it (fail closed). The owner is always granted access to their own
//!   resource.

use crate::error::EvalError;
use crate::path::{parse_path, PathExpr};
use serde::{Deserialize, Serialize};
use socialreach_graph::{NodeId, SocialGraph, Vocabulary};
use std::collections::HashMap;

/// Identifier of a shared resource (photo, note, album, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ResourceId(pub u64);

/// The outcome of an access check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// The requester may access the resource.
    Grant,
    /// The requester may not access the resource.
    Deny,
}

impl Decision {
    /// Convenience predicate.
    pub fn is_granted(self) -> bool {
        matches!(self, Decision::Grant)
    }
}

/// An access condition `(o, p)` — Definition 3.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AccessCondition {
    /// The starting node (resource owner).
    pub owner: NodeId,
    /// The reachability constraint.
    pub path: PathExpr,
}

impl AccessCondition {
    /// Parses the paper's combined notation `Owner/path…`, e.g.
    /// `Alice/friend+[1,2]/colleague+[1]` (Figure 2): the first segment
    /// is a node name, the remainder a path expression.
    pub fn parse(text: &str, g: &mut SocialGraph) -> Result<AccessCondition, EvalError> {
        let trimmed = text.trim_start();
        let sep = trimmed.find('/').ok_or_else(|| {
            crate::error::ParseError::new(text.len(), "expected 'Owner/path…'", text)
        })?;
        let owner_name = trimmed[..sep].trim();
        let owner = g.require_node(owner_name)?;
        let path = parse_path(&trimmed[sep + 1..], g.vocab_mut())?;
        Ok(AccessCondition { owner, path })
    }
}

/// An access rule `(rid, ACS)` — Definition 2.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AccessRule {
    /// The governed resource.
    pub resource: ResourceId,
    /// The conjunction of conditions a requester must satisfy.
    pub conditions: Vec<AccessCondition>,
}

/// Stores resource ownership and access rules.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PolicyStore {
    owners: HashMap<u64, NodeId>,
    rules: HashMap<u64, Vec<AccessRule>>,
    next_resource: u64,
}

impl PolicyStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new resource owned by `owner`, returning its id.
    pub fn register_resource(&mut self, owner: NodeId) -> ResourceId {
        let rid = ResourceId(self.next_resource);
        self.next_resource += 1;
        self.owners.insert(rid.0, owner);
        self.rules.entry(rid.0).or_default();
        rid
    }

    /// Owner of a resource.
    pub fn owner_of(&self, rid: ResourceId) -> Result<NodeId, EvalError> {
        self.owners
            .get(&rid.0)
            .copied()
            .ok_or(EvalError::UnknownResource(rid.0))
    }

    /// Attaches a rule to its resource.
    ///
    /// # Errors
    /// Fails when the rule's resource was never registered.
    pub fn add_rule(&mut self, rule: AccessRule) -> Result<(), EvalError> {
        if !self.owners.contains_key(&rule.resource.0) {
            return Err(EvalError::UnknownResource(rule.resource.0));
        }
        self.rules
            .get_mut(&rule.resource.0)
            .expect("rules entry created at registration")
            .push(rule);
        Ok(())
    }

    /// Convenience: adds a single-condition rule whose owner is the
    /// resource owner and whose path is parsed from `path_text` — in
    /// either syntax, classic path notation or the openCypher-flavored
    /// `MATCH` grammar ([`crate::query::parse_policy`]).
    pub fn allow(
        &mut self,
        rid: ResourceId,
        path_text: &str,
        g: &mut SocialGraph,
    ) -> Result<(), EvalError> {
        self.allow_in(rid, path_text, g.vocab_mut())
    }

    /// [`PolicyStore::allow`] against a bare vocabulary (the
    /// partitioned backends keep one master vocabulary, no graph).
    pub(crate) fn allow_in(
        &mut self,
        rid: ResourceId,
        path_text: &str,
        vocab: &mut Vocabulary,
    ) -> Result<(), EvalError> {
        let owner = self.owner_of(rid)?;
        let path = crate::query::parse_policy(path_text, vocab)?;
        self.add_rule(AccessRule {
            resource: rid,
            conditions: vec![AccessCondition { owner, path }],
        })
    }

    /// Rules attached to a resource (empty slice for private resources).
    pub fn rules_for(&self, rid: ResourceId) -> &[AccessRule] {
        self.rules.get(&rid.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All registered resources.
    pub fn resources(&self) -> impl Iterator<Item = (ResourceId, NodeId)> + '_ {
        self.owners.iter().map(|(&r, &o)| (ResourceId(r), o))
    }

    /// Number of registered resources.
    pub fn num_resources(&self) -> usize {
        self.owners.len()
    }

    /// Total number of rules.
    pub fn num_rules(&self) -> usize {
        self.rules.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> SocialGraph {
        let mut g = SocialGraph::new();
        let a = g.add_node("Alice");
        let b = g.add_node("Bob");
        g.connect(a, "friend", b);
        g
    }

    #[test]
    fn register_and_lookup_resources() {
        let mut store = PolicyStore::new();
        let g = graph();
        let alice = g.node_by_name("Alice").unwrap();
        let r1 = store.register_resource(alice);
        let r2 = store.register_resource(alice);
        assert_ne!(r1, r2);
        assert_eq!(store.owner_of(r1).unwrap(), alice);
        assert_eq!(store.num_resources(), 2);
        assert!(store.owner_of(ResourceId(99)).is_err());
        assert!(store.rules_for(r1).is_empty(), "new resources are private");
    }

    #[test]
    fn allow_parses_and_attaches_a_rule() {
        let mut store = PolicyStore::new();
        let mut g = graph();
        let alice = g.node_by_name("Alice").unwrap();
        let rid = store.register_resource(alice);
        store.allow(rid, "friend+[1,2]", &mut g).unwrap();
        let rules = store.rules_for(rid);
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].conditions.len(), 1);
        assert_eq!(rules[0].conditions[0].owner, alice);
        assert_eq!(store.num_rules(), 1);
    }

    #[test]
    fn allow_rejects_bad_paths_and_unknown_resources() {
        let mut store = PolicyStore::new();
        let mut g = graph();
        let alice = g.node_by_name("Alice").unwrap();
        let rid = store.register_resource(alice);
        assert!(matches!(
            store.allow(rid, "friend+[0]", &mut g),
            Err(EvalError::Parse(_))
        ));
        assert!(matches!(
            store.allow(ResourceId(42), "friend", &mut g),
            Err(EvalError::UnknownResource(42))
        ));
        let orphan = AccessRule {
            resource: ResourceId(42),
            conditions: vec![],
        };
        assert!(store.add_rule(orphan).is_err());
    }

    #[test]
    fn access_condition_parses_owner_slash_path() {
        let mut g = graph();
        let cond = AccessCondition::parse("Alice/friend+[1,2]/colleague+[1]", &mut g).unwrap();
        assert_eq!(cond.owner, g.node_by_name("Alice").unwrap());
        assert_eq!(cond.path.len(), 2);
        assert!(AccessCondition::parse("Zoe/friend", &mut g).is_err());
        assert!(AccessCondition::parse("AliceNoSlash", &mut g).is_err());
    }

    #[test]
    fn decision_predicate() {
        assert!(Decision::Grant.is_granted());
        assert!(!Decision::Deny.is_granted());
    }
}
