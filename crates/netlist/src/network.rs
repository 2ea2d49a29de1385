//! The logic network: a DAG of primary inputs, truth-table nodes (gates or
//! LUTs), latches and constants, with named primary outputs.
//!
//! This single representation serves every stage of the flow:
//!
//! * after parsing BLIF it holds arbitrary-arity `.names` nodes,
//! * after synthesis it holds 2-input gates,
//! * after technology mapping it holds K-LUTs,
//! * after signal parameterization it additionally holds mux nodes whose
//!   select inputs are marked as *parameters*.
//!
//! Latches break combinational cycles: an edge into a latch is not a
//! combinational dependency, so topological order and depth are computed
//! over the combinational subgraph only.

use crate::truth::TruthTable;
use pfdbg_util::{define_id, FxHashMap, IdVec};

define_id!(
    /// A node in a [`Network`]. Each node drives exactly one signal, so a
    /// `NodeId` doubles as the id of the signal (net) the node drives.
    pub struct NodeId
);

/// What a node computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// Primary input.
    Input,
    /// Constant 0 or 1.
    Const(bool),
    /// A combinational node (gate or LUT) with a truth table over its
    /// fanins. `table.nvars() == fanins.len()`.
    Table(TruthTable),
    /// A D-latch / flip-flop: output is previous-cycle value of its single
    /// fanin. `init` is the power-up value.
    Latch {
        /// Power-up value.
        init: bool,
    },
}

/// A node: its kind plus fanin edges (ordered — truth-table variable `i`
/// reads `fanins[i]`).
#[derive(Debug, Clone)]
pub struct Node {
    /// The function of the node.
    pub kind: NodeKind,
    /// Ordered fanins.
    pub fanins: Vec<NodeId>,
    /// Net name (unique within the network).
    pub name: String,
    /// Whether this signal is annotated as a *parameter* for the PConf
    /// flow (changes far less frequently than regular inputs).
    pub is_param: bool,
}

impl Node {
    /// Is this a combinational (truth-table) node?
    pub fn is_table(&self) -> bool {
        matches!(self.kind, NodeKind::Table(_))
    }

    /// Is this a latch?
    pub fn is_latch(&self) -> bool {
        matches!(self.kind, NodeKind::Latch { .. })
    }

    /// Is this a primary input?
    pub fn is_input(&self) -> bool {
        matches!(self.kind, NodeKind::Input)
    }

    /// The truth table, if this is a table node.
    pub fn table(&self) -> Option<&TruthTable> {
        match &self.kind {
            NodeKind::Table(t) => Some(t),
            _ => None,
        }
    }
}

/// A named primary output: points at the node that drives it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputPort {
    /// Output port name.
    pub name: String,
    /// Driving node.
    pub driver: NodeId,
}

/// A logic network.
#[derive(Debug, Clone, Default)]
pub struct Network {
    /// Model name (BLIF `.model`).
    pub name: String,
    nodes: IdVec<NodeId, Node>,
    outputs: Vec<OutputPort>,
    by_name: FxHashMap<String, NodeId>,
}

impl Network {
    /// An empty network with the given model name.
    pub fn new(name: impl Into<String>) -> Self {
        Network { name: name.into(), ..Default::default() }
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    fn add_node(&mut self, node: Node) -> NodeId {
        assert!(!self.by_name.contains_key(&node.name), "duplicate net name {:?}", node.name);
        let name = node.name.clone();
        let id = self.nodes.push(node);
        self.by_name.insert(name, id);
        id
    }

    /// Add a primary input.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(Node {
            kind: NodeKind::Input,
            fanins: Vec::new(),
            name: name.into(),
            is_param: false,
        })
    }

    /// Add a constant node.
    pub fn add_const(&mut self, name: impl Into<String>, value: bool) -> NodeId {
        self.add_node(Node {
            kind: NodeKind::Const(value),
            fanins: Vec::new(),
            name: name.into(),
            is_param: false,
        })
    }

    /// Add a combinational node. Panics if the table arity does not match
    /// the fanin count or a fanin id is out of range (self-loops included).
    pub fn add_table(
        &mut self,
        name: impl Into<String>,
        fanins: Vec<NodeId>,
        table: TruthTable,
    ) -> NodeId {
        assert_eq!(table.nvars(), fanins.len(), "table arity != fanin count");
        let next = self.nodes.next_id();
        for &f in &fanins {
            assert!(f != next && self.nodes.contains_id(f), "bad fanin {f:?}");
        }
        self.add_node(Node {
            kind: NodeKind::Table(table),
            fanins,
            name: name.into(),
            is_param: false,
        })
    }

    /// Add a latch fed by `data` with power-up value `init`.
    pub fn add_latch(&mut self, name: impl Into<String>, data: NodeId, init: bool) -> NodeId {
        assert!(self.nodes.contains_id(data), "bad latch data {data:?}");
        self.add_node(Node {
            kind: NodeKind::Latch { init },
            fanins: vec![data],
            name: name.into(),
            is_param: false,
        })
    }

    /// Declare `driver` as a primary output named `name`.
    pub fn add_output(&mut self, name: impl Into<String>, driver: NodeId) {
        assert!(self.nodes.contains_id(driver), "bad output driver {driver:?}");
        self.outputs.push(OutputPort { name: name.into(), driver });
    }

    /// Rename a node's net. Panics if the new name is taken.
    pub fn rename(&mut self, id: NodeId, new_name: impl Into<String>) {
        let new_name = new_name.into();
        assert!(!self.by_name.contains_key(&new_name), "rename target {new_name:?} already exists");
        let old = std::mem::replace(&mut self.nodes[id].name, new_name.clone());
        self.by_name.remove(&old);
        self.by_name.insert(new_name, id);
    }

    /// Mark a node's signal as a PConf parameter.
    pub fn set_param(&mut self, id: NodeId, is_param: bool) {
        self.nodes[id].is_param = is_param;
    }

    /// Re-point a latch's data input (used by instrumentation rewrites).
    pub fn set_latch_data(&mut self, latch: NodeId, data: NodeId) {
        assert!(self.nodes[latch].is_latch(), "{latch:?} is not a latch");
        assert!(self.nodes.contains_id(data));
        self.nodes[latch].fanins[0] = data;
    }

    /// Replace every use of `old` (as a fanin or output driver) with `new`.
    pub fn replace_uses(&mut self, old: NodeId, new: NodeId) {
        assert!(self.nodes.contains_id(new));
        for node in self.nodes.values_mut() {
            for f in &mut node.fanins {
                if *f == old {
                    *f = new;
                }
            }
        }
        for out in &mut self.outputs {
            if out.driver == old {
                out.driver = new;
            }
        }
    }

    // ------------------------------------------------------------------
    // Access
    // ------------------------------------------------------------------

    /// Node lookup.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Number of nodes (of all kinds).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Iterate over `(id, node)`.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        self.nodes.ids()
    }

    /// Primary outputs.
    pub fn outputs(&self) -> &[OutputPort] {
        &self.outputs
    }

    /// Primary inputs in creation order.
    pub fn inputs(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().filter(|(_, n)| n.is_input()).map(|(id, _)| id)
    }

    /// Latches in creation order.
    pub fn latches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().filter(|(_, n)| n.is_latch()).map(|(id, _)| id)
    }

    /// Find a node by net name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Generate a fresh net name starting with `prefix` that does not
    /// collide with any existing name: `prefix` itself if it is free,
    /// else the first free `prefix_i`.
    pub fn fresh_name(&self, prefix: &str) -> String {
        self.fresh_name_after(prefix, &mut 0)
    }

    /// [`Network::fresh_name`], searching from candidate `*next` (0 is
    /// `prefix` itself, `i + 1` is `prefix_i`) and leaving `*next` just
    /// past the name it returns. A caller that adds each name before it
    /// asks for the next one under the same prefix, and renames nothing
    /// in between, gets the names `fresh_name` would give without
    /// probing the taken candidates again.
    pub fn fresh_name_after(&self, prefix: &str, next: &mut usize) -> String {
        loop {
            let candidate = match *next {
                0 => prefix.to_string(),
                i => format!("{prefix}_{}", i - 1),
            };
            *next += 1;
            if !self.by_name.contains_key(&candidate) {
                return candidate;
            }
        }
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// Number of combinational (table) nodes — "#Gate" / "#LUT" depending
    /// on the stage.
    pub fn n_tables(&self) -> usize {
        self.nodes.values().filter(|n| n.is_table()).count()
    }

    /// Number of latches.
    pub fn n_latches(&self) -> usize {
        self.nodes.values().filter(|n| n.is_latch()).count()
    }

    /// Number of primary inputs.
    pub fn n_inputs(&self) -> usize {
        self.nodes.values().filter(|n| n.is_input()).count()
    }

    /// Number of primary outputs.
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Nodes marked as parameters.
    pub fn params(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().filter(|(_, n)| n.is_param).map(|(id, _)| id)
    }

    /// Fanout count per node (uses as fanin of tables/latches plus uses as
    /// output drivers).
    pub fn fanout_counts(&self) -> IdVec<NodeId, u32> {
        let mut counts: IdVec<NodeId, u32> = IdVec::filled(0, self.nodes.len());
        for node in self.nodes.values() {
            for &f in &node.fanins {
                counts[f] += 1;
            }
        }
        for out in &self.outputs {
            counts[out.driver] += 1;
        }
        counts
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// Topological order of *combinational* nodes: inputs, constants and
    /// latch outputs come first (depth 0 sources), then table nodes in
    /// dependency order. Latches' data inputs are *not* combinational
    /// dependencies of the latch output.
    ///
    /// Returns `Err` with a node on a combinational cycle if one exists.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, NodeId> {
        let n = self.nodes.len();
        let mut order = Vec::with_capacity(n);
        // 0 = unvisited, 1 = on stack, 2 = done
        let mut state: IdVec<NodeId, u8> = IdVec::filled(0, n);
        // Iterative DFS to avoid stack overflow on deep circuits.
        let mut stack: Vec<(NodeId, usize)> = Vec::new();
        for root in self.nodes.ids() {
            if state[root] != 0 {
                continue;
            }
            stack.push((root, 0));
            state[root] = 1;
            while let Some(&mut (id, ref mut child)) = stack.last_mut() {
                let node = &self.nodes[id];
                // Latches and sources have no combinational fanins.
                let fanins: &[NodeId] = if node.is_table() { &node.fanins } else { &[] };
                if *child < fanins.len() {
                    let next = fanins[*child];
                    *child += 1;
                    match state[next] {
                        0 => {
                            state[next] = 1;
                            stack.push((next, 0));
                        }
                        1 => return Err(next), // combinational cycle
                        _ => {}
                    }
                } else {
                    state[id] = 2;
                    order.push(id);
                    stack.pop();
                }
            }
        }
        Ok(order)
    }

    /// Logic depth per node: sources (inputs, constants, latch outputs)
    /// have depth 0; a table node has `1 + max(depth of fanins)`.
    pub fn depths(&self) -> Result<IdVec<NodeId, u32>, NodeId> {
        let order = self.topo_order()?;
        let mut depth: IdVec<NodeId, u32> = IdVec::filled(0, self.nodes.len());
        for id in order {
            let node = &self.nodes[id];
            if node.is_table() {
                depth[id] = 1 + node.fanins.iter().map(|&f| depth[f]).max().unwrap_or(0);
            }
        }
        Ok(depth)
    }

    /// The network's logic depth: the maximum over all output drivers and
    /// latch data inputs (i.e. over every register-to-register or
    /// input-to-output combinational path endpoint).
    pub fn depth(&self) -> Result<u32, NodeId> {
        let depths = self.depths()?;
        let mut max = 0;
        for out in &self.outputs {
            max = max.max(depths[out.driver]);
        }
        for (id, node) in self.nodes.iter() {
            if node.is_latch() {
                max = max.max(depths[node.fanins[0]]);
            }
            let _ = id;
        }
        Ok(max)
    }

    /// Validate structural invariants; returns a description of the first
    /// violation. Checked invariants: fanin arity matches table arity,
    /// fanin ids in range, latches have exactly one fanin, no combinational
    /// cycles, names are consistent with the index.
    pub fn validate(&self) -> Result<(), String> {
        for (id, node) in self.nodes.iter() {
            match &node.kind {
                NodeKind::Table(t) => {
                    if t.nvars() != node.fanins.len() {
                        return Err(format!(
                            "node {id:?} ({}): table arity {} != {} fanins",
                            node.name,
                            t.nvars(),
                            node.fanins.len()
                        ));
                    }
                }
                NodeKind::Latch { .. } => {
                    if node.fanins.len() != 1 {
                        return Err(format!(
                            "latch {id:?} ({}) has {} fanins",
                            node.name,
                            node.fanins.len()
                        ));
                    }
                }
                NodeKind::Input | NodeKind::Const(_) => {
                    if !node.fanins.is_empty() {
                        return Err(format!("source {id:?} ({}) has fanins", node.name));
                    }
                }
            }
            for &f in &node.fanins {
                if !self.nodes.contains_id(f) {
                    return Err(format!("node {id:?} has out-of-range fanin {f:?}"));
                }
            }
            match self.by_name.get(&node.name) {
                Some(&mapped) if mapped == id => {}
                _ => return Err(format!("name index inconsistent for {id:?} ({})", node.name)),
            }
        }
        for out in &self.outputs {
            if !self.nodes.contains_id(out.driver) {
                return Err(format!("output {} has bad driver", out.name));
            }
        }
        if let Err(node) = self.topo_order() {
            return Err(format!("combinational cycle through {node:?}"));
        }
        Ok(())
    }

    /// Remove table nodes that drive nothing (dead logic), preserving all
    /// inputs, latches, constants-in-use, outputs. Returns the number of
    /// nodes removed. Ids are *compacted*; the mapping old→new is returned
    /// alongside.
    pub fn sweep_dead(&mut self) -> (usize, IdVec<NodeId, Option<NodeId>>) {
        // Mark live: outputs, latch fanin cones, latch outputs, inputs.
        let n = self.nodes.len();
        let mut live: IdVec<NodeId, bool> = IdVec::filled(false, n);
        let mut stack: Vec<NodeId> = Vec::new();
        let mark = |id: NodeId, live: &mut IdVec<NodeId, bool>, stack: &mut Vec<NodeId>| {
            if !live[id] {
                live[id] = true;
                stack.push(id);
            }
        };
        for out in &self.outputs {
            mark(out.driver, &mut live, &mut stack);
        }
        for (id, node) in self.nodes.iter() {
            if node.is_input() || node.is_latch() {
                mark(id, &mut live, &mut stack);
            }
        }
        while let Some(id) = stack.pop() {
            // Clone to appease the borrow checker; fanin lists are short.
            let fanins = self.nodes[id].fanins.clone();
            for f in fanins {
                if !live[f] {
                    live[f] = true;
                    stack.push(f);
                }
            }
        }

        // Compact.
        let mut remap: IdVec<NodeId, Option<NodeId>> = IdVec::filled(None, n);
        let mut new_nodes: IdVec<NodeId, Node> = IdVec::with_capacity(n);
        for (id, node) in self.nodes.iter() {
            if live[id] {
                remap[id] = Some(new_nodes.push(node.clone()));
            }
        }
        let removed = n - new_nodes.len();
        for node in new_nodes.values_mut() {
            for f in &mut node.fanins {
                *f = remap[*f].expect("live node references dead fanin");
            }
        }
        for out in &mut self.outputs {
            out.driver = remap[out.driver].expect("output driver dead");
        }
        self.by_name.clear();
        for (id, node) in new_nodes.iter() {
            self.by_name.insert(node.name.clone(), id);
        }
        self.nodes = new_nodes;
        (removed, remap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::gates;

    /// Build `out = (a AND b) XOR c` with a latch on the output.
    fn sample() -> Network {
        let mut nw = Network::new("sample");
        let a = nw.add_input("a");
        let b = nw.add_input("b");
        let c = nw.add_input("c");
        let g1 = nw.add_table("g1", vec![a, b], gates::and2());
        let g2 = nw.add_table("g2", vec![g1, c], gates::xor2());
        let q = nw.add_latch("q", g2, false);
        nw.add_output("out", q);
        nw
    }

    #[test]
    fn counts_and_lookup() {
        let nw = sample();
        assert_eq!(nw.n_inputs(), 3);
        assert_eq!(nw.n_tables(), 2);
        assert_eq!(nw.n_latches(), 1);
        assert_eq!(nw.n_outputs(), 1);
        assert_eq!(nw.find("g1"), Some(NodeId(3)));
        assert_eq!(nw.find("nope"), None);
        nw.validate().unwrap();
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let nw = sample();
        let order = nw.topo_order().unwrap();
        let pos: std::collections::HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for (id, node) in nw.nodes() {
            if node.is_table() {
                for &f in &node.fanins {
                    assert!(pos[&f] < pos[&id], "fanin after node in topo order");
                }
            }
        }
        assert_eq!(order.len(), nw.n_nodes());
    }

    #[test]
    fn depth_of_sample_is_two() {
        let nw = sample();
        // g2 is at depth 2 and feeds the latch -> network depth 2.
        assert_eq!(nw.depth().unwrap(), 2);
    }

    #[test]
    fn latch_breaks_cycles() {
        // q feeds back into its own next-state logic through a gate: legal.
        let mut nw = Network::new("loop");
        let a = nw.add_input("a");
        // placeholder latch fed by input, rewired after the gate exists
        let q = nw.add_latch("q", a, false);
        let g = nw.add_table("g", vec![a, q], gates::xor2());
        nw.set_latch_data(q, g);
        nw.add_output("out", q);
        nw.validate().unwrap();
        assert_eq!(nw.depth().unwrap(), 1);
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut nw = Network::new("cyc");
        let a = nw.add_input("a");
        let g1 = nw.add_table("g1", vec![a, a], gates::and2());
        let g2 = nw.add_table("g2", vec![g1, a], gates::or2());
        // Create a cycle g1 <- g2 by mutating through replace_uses:
        // replace a's use in g1 with g2.
        nw.replace_uses(a, g2);
        assert!(nw.topo_order().is_err());
        assert!(nw.validate().is_err());
    }

    #[test]
    fn fanout_counts_include_outputs() {
        let nw = sample();
        let counts = nw.fanout_counts();
        assert_eq!(counts[nw.find("a").unwrap()], 1);
        assert_eq!(counts[nw.find("g1").unwrap()], 1);
        assert_eq!(counts[nw.find("q").unwrap()], 1); // as output driver
    }

    #[test]
    fn sweep_removes_dead_logic() {
        let mut nw = sample();
        let a = nw.find("a").unwrap();
        let b = nw.find("b").unwrap();
        nw.add_table("dead", vec![a, b], gates::or2());
        assert_eq!(nw.n_tables(), 3);
        let (removed, _) = nw.sweep_dead();
        assert_eq!(removed, 1);
        assert_eq!(nw.n_tables(), 2);
        assert!(nw.find("dead").is_none());
        nw.validate().unwrap();
    }

    #[test]
    fn sweep_keeps_latch_cones() {
        let mut nw = Network::new("l");
        let a = nw.add_input("a");
        let g = nw.add_table("g", vec![a, a], gates::and2());
        let _q = nw.add_latch("q", g, true);
        // No outputs at all: latch cone must still survive.
        let (removed, _) = nw.sweep_dead();
        assert_eq!(removed, 0);
        nw.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "duplicate net name")]
    fn duplicate_names_rejected() {
        let mut nw = Network::new("d");
        nw.add_input("x");
        nw.add_input("x");
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let mut nw = Network::new("f");
        nw.add_input("sig");
        let n1 = nw.fresh_name("sig");
        assert_ne!(n1, "sig");
        assert_eq!(nw.fresh_name("other"), "other");
    }

    /// Names added one by one under a prefix that other nets already
    /// use come out the same whether each search starts over or resumes.
    #[test]
    fn resumed_fresh_names_match_fresh_names() {
        let mut fresh = Network::new("f");
        for name in ["m", "m_1", "m_2", "m_5"] {
            fresh.add_input(name);
        }
        let mut resumed = fresh.clone();
        let mut next = 0;
        let mut names = Vec::new();
        for _ in 0..5 {
            let (a, b) = (fresh.fresh_name("m"), resumed.fresh_name_after("m", &mut next));
            assert_eq!(a, b);
            fresh.add_input(a.clone());
            resumed.add_input(b);
            names.push(a);
        }
        assert_eq!(names, ["m_0", "m_3", "m_4", "m_6", "m_7"]);
    }

    #[test]
    fn params_tracked() {
        let mut nw = sample();
        let a = nw.find("a").unwrap();
        nw.set_param(a, true);
        let params: Vec<NodeId> = nw.params().collect();
        assert_eq!(params, vec![a]);
    }
}
