//! A design: a collection of modules with one designated top.

use std::collections::HashMap;

use crate::{KindRef, Module, ModuleId, NetlistError, PinDirs, PortDir};

/// A multi-module design (hierarchy is shallow: submodules are used for
/// generated blocks such as latch controllers and composite latches).
#[derive(Debug, Clone, Default)]
pub struct Design {
    modules: Vec<Module>,
    names: HashMap<String, ModuleId>,
    top: Option<ModuleId>,
}

impl Design {
    /// Creates an empty design.
    pub fn new() -> Self {
        Design::default()
    }

    /// Adds a fresh empty module named `name` and returns its id.
    ///
    /// The first module added becomes the top module. If `name` collides
    /// with an existing module, a unique suffix is appended.
    pub fn add_module(&mut self, name: impl Into<String>) -> ModuleId {
        let mut name = name.into();
        while self.names.contains_key(&name) {
            name.push('_');
        }
        self.insert(Module::new(name))
    }

    /// Moves an already-built module into the design and returns its id.
    ///
    /// # Panics
    /// Panics if a module of the same name already exists.
    pub fn insert(&mut self, module: Module) -> ModuleId {
        assert!(
            !self.names.contains_key(&module.name),
            "duplicate module name `{}`",
            module.name
        );
        let id = ModuleId::from_index(self.modules.len());
        self.names.insert(module.name.clone(), id);
        self.modules.push(module);
        if self.top.is_none() {
            self.top = Some(id);
        }
        id
    }

    /// Returns the module with id `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn module(&self, id: ModuleId) -> &Module {
        &self.modules[id.index()]
    }

    /// Returns the module with id `id`, mutably.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    pub fn module_mut(&mut self, id: ModuleId) -> &mut Module {
        &mut self.modules[id.index()]
    }

    /// Looks a module up by name.
    pub fn find_module(&self, name: &str) -> Option<ModuleId> {
        self.names.get(name).copied()
    }

    /// Iterates over all modules as `(id, module)`.
    pub fn modules(&self) -> impl Iterator<Item = (ModuleId, &Module)> {
        self.modules
            .iter()
            .enumerate()
            .map(|(i, m)| (ModuleId::from_index(i), m))
    }

    /// Consumes the design, returning its modules in id order.
    pub fn into_modules(self) -> Vec<Module> {
        self.modules
    }

    /// The designated top module.
    ///
    /// # Panics
    /// Panics if the design is empty.
    pub fn top(&self) -> ModuleId {
        self.top.expect("design has no modules")
    }

    /// Returns the top module by reference.
    ///
    /// # Panics
    /// Panics if the design is empty.
    pub fn top_module(&self) -> &Module {
        self.module(self.top())
    }

    /// Returns the top module mutably.
    ///
    /// # Panics
    /// Panics if the design is empty.
    pub fn top_module_mut(&mut self) -> &mut Module {
        let id = self.top();
        self.module_mut(id)
    }

    /// Re-designates which module is top.
    ///
    /// # Errors
    /// Returns [`NetlistError::UnknownName`] if no module is named `name`.
    pub fn set_top(&mut self, name: &str) -> Result<ModuleId, NetlistError> {
        let id = self
            .find_module(name)
            .ok_or_else(|| NetlistError::UnknownName {
                kind: "module",
                name: name.to_owned(),
            })?;
        self.top = Some(id);
        Ok(id)
    }

    /// Wraps a library pin-direction resolver so that pins of module
    /// instances resolve through the instantiated module's port list.
    pub fn pin_dirs<'a, L: PinDirs>(&'a self, lib: &'a L) -> DesignPinDirs<'a, L> {
        DesignPinDirs { design: self, lib }
    }
}

/// [`PinDirs`] resolver that understands both library cells (via `lib`) and
/// module instances (via the design's module port declarations).
#[derive(Debug, Clone, Copy)]
pub struct DesignPinDirs<'a, L> {
    design: &'a Design,
    lib: &'a L,
}

impl<L: PinDirs> PinDirs for DesignPinDirs<'_, L> {
    fn pin_dir(&self, kind: KindRef<'_>, pin: &str) -> Option<PortDir> {
        match kind {
            KindRef::Lib(_) => self.lib.pin_dir(kind, pin),
            KindRef::Instance(module) => {
                let m = self.design.find_module(module)?;
                let m = self.design.module(m);
                let p = m.find_port(pin)?;
                Some(m.port(p).dir)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Conn;

    #[test]
    fn first_module_is_top() {
        let mut d = Design::new();
        let a = d.add_module("a");
        let _b = d.add_module("b");
        assert_eq!(d.top(), a);
        d.set_top("b").unwrap();
        assert_eq!(d.top_module().name, "b");
        assert!(d.set_top("missing").is_err());
    }

    #[test]
    fn duplicate_module_names_get_suffixed() {
        let mut d = Design::new();
        d.add_module("m");
        let second = d.add_module("m");
        assert_ne!(d.module(second).name, "m");
    }

    #[test]
    fn instance_pin_dirs_resolve_via_ports() {
        let mut d = Design::new();
        let top = d.add_module("top");
        let sub = d.add_module("sub");
        d.module_mut(sub).add_port("in1", PortDir::Input).unwrap();
        d.module_mut(sub).add_port("out1", PortDir::Output).unwrap();
        let n1 = d.module_mut(top).add_net("n1").unwrap();
        let n2 = d.module_mut(top).add_net("n2").unwrap();
        d.module_mut(top)
            .add_instance(
                "u_sub",
                "sub",
                &[("in1", Conn::Net(n1)), ("out1", Conn::Net(n2))],
            )
            .unwrap();

        let lib = |_: KindRef<'_>, _: &str| -> Option<PortDir> { None };
        let dirs = d.pin_dirs(&lib);
        let conn = d.module(top).connectivity(&dirs).unwrap();
        assert!(conn.driver(n2).is_some());
        assert_eq!(conn.loads(n1).len(), 1);
    }
}
