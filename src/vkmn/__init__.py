"""Key-value memory network VQA over a knowledge base of <s, r, t> triples."""

from .kb import (KnowledgeGraph, Triple, build_graph, canonicalize_relation,
                 extract_triples_from_qa, filter_by_frequency, lemmatize,
                 lemmatize_phrase, load_kb, make_triple, save_kb)
from .embedding import (EmbeddingTable, TransEConfig, bow_embed, embed_entry,
                        load_embeddings, make_bow_table, mean_tail_rank,
                        rank_tail, save_embeddings, train_transe, transe_score)
from .model import (ModelDims, ModelParams, backward, forward, init_params,
                    load_checkpoint, predict, save_checkpoint, slot_features)
from .spotting import (SlotAssignment, SpottedSet, expand_neighborhood,
                       match_entries, select_slots, spot_question,
                       spot_triples)
from .training import (EvalReport, SyntheticTask, TrainConfig, VqaExample,
                       answer_question, build_answer_vocab, classify_answer_type,
                       evaluate, format_report_table, gradient_check, load_dataset,
                       make_synthetic_task, retrieve, save_dataset, train)

__version__ = "0.1.0"
