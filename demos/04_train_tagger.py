"""
Training the tagger with soft-then-hard EM
==========================================

Each update alternates an E step (alignment posteriors from the current
tagger, soft early on, hardened later) with an M step (a gradient step
on the expected tagging loss).  The log shows the phase switch, and the
learned tagger labels each word with the symbol it evokes.
"""

import tempfile
from pathlib import Path

from tagparse import (EmConfig, TaggerConfig, anonymize_entities,
                      gen_synthetic, predict_tags, tag_accuracy, train_tagger)

corpus = [anonymize_entities(ex) for ex in gen_synthetic(seed=0)[:60]]

config = EmConfig(seed=0, total_updates=400, soft_updates=200, batch_size=6,
                  learning_rate=0.02, log_every=100)
log_path = Path(tempfile.mkdtemp()) / "tagger_log.tsv"
params = train_tagger(corpus, config, log_file=log_path,
                      tagger_config=TaggerConfig(embedding_size=16,
                                                 hidden_size=16))

print("training log (step, phase, loss):")
print(log_path.read_text())

# The synthetic corpus records construction-time gold alignments, so we
# can score the induced tags even though training never saw them.
print(f"gold tag accuracy: {tag_accuracy(params, corpus):.3f}")

example = corpus[0]
tags = predict_tags(params, [example.utterance])[0]
# Relational symbols (from, to) anchor on their argument's entity
# marker, the convention the grammar's gold alignments use.
print("\nword -> tag")
for word, tag_id in zip(example.utterance.tokens, tags):
    print(f"  {word:12s} {params.tag_vocab.symbol_of(tag_id)}")
