"""
Alignment posteriors: the E step
================================

Tags are latent: supervision says which symbols appear in an utterance,
never which word evokes which symbol.  The E step turns the tagger's
per-word distributions into a posterior over word/symbol alignments.
Soft posteriors spread each symbol's mass over the words (columns sum
to 1); hardening thresholds them into the 0/1 targets of the late
training phase (rows sum to 1, leftover mass on null columns).
"""

import numpy as np

from tagparse import (TagVocabulary, TaggerConfig, compute_posteriors,
                      harden_posteriors, init_tagger, tag_distribution)
from tagparse.data import SymbolSet, Utterance
from tagparse.nn import Vocab

words = ["show", "morning", "flights"]
symbols = ["flight", "morning"]

vocab = Vocab(words)
tag_vocab = TagVocabulary(symbols)
params = init_tagger(vocab, tag_vocab,
                     TaggerConfig(embedding_size=8, hidden_size=8), seed=0)

utterance = Utterance(tuple(words))
symbol_set = SymbolSet(symbols=tuple(symbols), padded_length=len(words),
                       fixed_alignments={})

# The tagger scores every word against every tag...
probs = tag_distribution(params, [utterance]).data
print("tag distribution rows (one per word):")
print(np.round(probs, 3))

# ...and the posterior renormalizes each symbol's column, treating the
# alignment of each symbol as independent of the others.
posterior = compute_posteriors(probs, symbol_set, tag_vocab)
print("\nsoft posterior (columns are symbols then nulls):")
print(np.round(posterior.matrix, 3))
print("symbol columns sum to:",
      np.round(posterior.matrix[:, :posterior.num_symbols].sum(axis=0), 6))

# Hardening keeps the words whose posterior clears the threshold and
# pushes every row's leftover mass onto the null columns.
hard = harden_posteriors(posterior, beta=0.26)
print("\nhard posterior:")
print(np.round(hard.matrix, 3))
print("rows sum to:", np.round(hard.matrix.sum(axis=1), 6))
