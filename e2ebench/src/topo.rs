//! Topology assembly: the dispatcher exactly as users start it, or the
//! same components assembled with their `start_with_telemetry`
//! constructors for the traced run.

use std::sync::Arc;

use wsd_core::config::{DispatcherConfig, MsgBoxConfig};
use wsd_core::rt::{
    Deployment, MsgBoxServer, MsgDispatcherServer, Network, RegistryServer, RpcDispatcherServer,
};
use wsd_core::security::PolicyChain;
use wsd_core::{MsgCore, Registry};

/// The dispatcher host name.
pub const HOST: &str = "dispatcher";
/// `Deployment::builder` default ports.
pub const MSG_PORT: u16 = 8080;
pub const RPC_PORT: u16 = 8081;
pub const MSGBOX_PORT: u16 = 8082;
const REGISTRY_PORT: u16 = 8090;

/// A running dispatcher host: registry, RPC-Dispatcher, MSG-Dispatcher,
/// WS-MsgBox and the registry service.
pub enum Dispatcher {
    /// `Deployment::builder(..).start()`, the way users start it.
    Plain(Deployment),
    /// The same components, each started with its telemetry constructor.
    Traced {
        registry: Arc<Registry>,
        rpc: RpcDispatcherServer,
        msg: Arc<MsgDispatcherServer>,
        msgbox: Arc<MsgBoxServer>,
        registry_service: RegistryServer,
    },
}

impl Dispatcher {
    /// Starts the dispatcher on [`HOST`]; with `tele`, every component
    /// registers its instruments under `rpc`, `msg` and `msgbox` scopes.
    pub fn start(
        net: &Arc<Network>,
        seed: u64,
        tele: Option<&wsd_telemetry::Registry>,
    ) -> Dispatcher {
        let Some(tele) = tele else {
            return Dispatcher::Plain(Deployment::builder(net, HOST).seed(seed).start());
        };
        // Mirrors `DeploymentBuilder::start` with default configuration.
        let registry = Arc::new(Registry::new());
        let config = DispatcherConfig::default();
        let rpc = RpcDispatcherServer::start_with_telemetry(
            net,
            HOST,
            RPC_PORT,
            Arc::clone(&registry),
            PolicyChain::new(),
            config.clone(),
            &tele.scope("rpc"),
        );
        let core = MsgCore::new(
            Arc::clone(&registry),
            format!("http://{HOST}:{MSG_PORT}/msg"),
            seed,
        )
        .with_mailbox(format!("http://{HOST}:{MSGBOX_PORT}/deposit"));
        let msgbox = MsgBoxServer::start_with_telemetry(
            net,
            HOST,
            MSGBOX_PORT,
            MsgBoxConfig::default(),
            seed,
            &tele.scope("msgbox"),
        );
        let msg = MsgDispatcherServer::start_with_telemetry(
            net,
            HOST,
            MSG_PORT,
            core,
            config.clone(),
            &tele.scope("msg"),
        );
        let registry_service = RegistryServer::start_with_limits(
            net,
            HOST,
            REGISTRY_PORT,
            Arc::clone(&registry),
            config.limits,
        );
        Dispatcher::Traced {
            registry,
            rpc,
            msg,
            msgbox,
            registry_service,
        }
    }

    pub fn registry(&self) -> &Registry {
        match self {
            Dispatcher::Plain(d) => d.registry(),
            Dispatcher::Traced { registry, .. } => registry,
        }
    }

    /// Stops every component, in `Deployment::shutdown` order.
    pub fn shutdown(&self) {
        match self {
            Dispatcher::Plain(d) => d.shutdown(),
            Dispatcher::Traced {
                rpc,
                msg,
                msgbox,
                registry_service,
                ..
            } => {
                registry_service.shutdown();
                msgbox.shutdown();
                msg.shutdown();
                rpc.shutdown();
            }
        }
    }
}
