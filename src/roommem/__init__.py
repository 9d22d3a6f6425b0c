"""Room-simulation agents with bounded episodic and semantic memory."""

from .env import ConfigError, EnvConfig, Observation, Question, RoomEnv
from .kb import KbError, KnowledgeBase, commonsense_location, generate_synthetic_kb, load_kb, write_kb
from .memory import (
    EPISODIC,
    FORGET,
    RELATION,
    SEMANTIC,
    SHORT_TERM,
    TO_EPISODIC,
    TO_SEMANTIC,
    MemorySystem,
    Quadruple,
    answer_of,
    apply_action,
    observe,
    prefill_semantic,
    retrieve,
)
from .policies import (
    EpisodicOnly,
    GreedyQ,
    RandomPolicy,
    SemanticOnly,
    evaluate,
    run_episode,
)
from .qnet import QNetwork, Vocabulary
from .trainer import TrainConfig, TrainResult, train

__version__ = "0.1.0"
