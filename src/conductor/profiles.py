"""Per-dataset registries: personas, conceptual toolsets, and source aliases.

FoCus is the multi-source setting (PERSONA and DOCUMENT knowledge bases);
CIMA and PsyQA are multi-strategy settings (five tutoring strategies, seven
counseling strategies). Strategy tools carry example (dialogue, output)
pairs that double as per-strategy module exemplars and as the optional
in-context tool examples.

Source-name resolution is case-insensitive and maps the legacy KNOWLEDGE
name (and the *_Retrieval module names) onto the document source.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from conductor.core import ConceptualTool, SchemaKind, ToolSet
from conductor.errors import UnknownTool

# ---------------------------------------------------------------------------
# FoCus: sources and modules

FOCUS_SOURCES = ToolSet(
    tools=(
        ConceptualTool(
            name="PERSONA",
            description=(
                "This knowledge base stores personal preferences or relevant "
                "personal details about the user. It takes in the query and "
                "returns a related user persona that assists in addressing the "
                "user's current question."
            ),
            examples=(
                (
                    "USER: I know this place, but I don't remember the name of this place.",
                    "I like living in a city. I don't hope to ever visit New Zealand.",
                ),
            ),
        ),
        ConceptualTool(
            name="DOCUMENT",
            description=(
                "This knowledge base stores background knowledge from Wikipedia "
                "as the hint for the given dialogue. Normally, we consider using "
                "DOCUMENT when the background knowledge is required and helpful "
                "to guide the response generation."
            ),
            examples=(
                (
                    "USER: What is the overview of this area?",
                    "The range is mainly located in Nunavut but expands southeast "
                    "into the northernmost tip of Labrador and northeastern Quebec.",
                ),
            ),
        ),
    ),
)

FOCUS_MODULES = ToolSet(
    tools=(
        ConceptualTool(
            name="Persona_Retrieval",
            description=(
                "This module retrieves personal preferences or relevant personal "
                "details about the user. It takes in the query and returns a "
                "related user persona that assists in addressing the user's "
                "current question."
            ),
        ),
        ConceptualTool(
            name="Knowledge_Retrieval",
            description=(
                'This module retrieves background knowledge from Wikipedia as the '
                'hint for the given dialogue. Normally, we consider using '
                '"Knowledge_Retrieval" when the background knowledge is helpful '
                "to guide the solution."
            ),
        ),
        ConceptualTool(
            name="Answer_Generator",
            description=(
                "This module extracts the final answer in a short form from the "
                "solution or execution result. This module normally is the last "
                "module in the prediction pipeline."
            ),
        ),
    ),
)

# ---------------------------------------------------------------------------
# CIMA: five tutoring strategies, each with its module exemplars

_CIMA_D1 = (
    'Teacher: "Is Inside Of The" is "e dentro la". Please try to fill in the '
    "blank in Italian.\tStudent: How do you say blue box in Italian?\t"
    "Teacher: Prepositional phrases separate the two noun phrases.\t"
    "Student: Is it e dentro la box blu?"
)
_CIMA_D2 = (
    "Teacher: Green is verde. Please try to fill in the blank in Italian.\t"
    "Student: what is the word for green?"
)
_CIMA_D3 = (
    "Teacher: 'Is Behind The' is 'e dietro il'. Please try to fill in the blank "
    "in Italian.\tStudent: what is blue in italian?\tTeacher: Can you give me "
    "your best guess?\tStudent: blueo\tTeacher: Remember that  'is behind the' "
    "is  'e dietro il'\tStudent: e dietro il blueo cato\tTeacher: Hmm...  "
    "'is behind the' is 'e dietro il'\tStudent: e dietro il\tTeacher: Hmm...  "
    "'cat' is  'gatto'\tStudent: e dietro il gatto"
)
_CIMA_D_FRONT = (
    "Teacher: Please try to fill in the blank in Italian.\tStudent: How do you "
    "say in front of?\tTeacher: Why don't you try filling in what you can.\t"
    "Student: il coniglio e front il tree verde"
)
_CIMA_D_BED = (
    "Teacher: Please try to fill in the blank in Italian.\tStudent: how do you "
    "say bed\tTeacher: Okay, I'll give you a hint.  'bed' is  'letto'\t"
    "Student: il cane es dieplo letto?"
)

CIMA_STRATEGIES = ToolSet(
    tools=(
        ConceptualTool(
            name="Hint",
            description="The teacher provides knowledge to the student via a hint.",
            examples=(
                (_CIMA_D1, "box is scatola."),
                (_CIMA_D2, "la pianta e dentro la scatola verdeverde"),
                (_CIMA_D_FRONT, "'in front of' is 'e di fronte'."),
            ),
        ),
        ConceptualTool(
            name="Question",
            description=(
                "The teacher asks a question of the student, which can attempt "
                "to determine a student’s understanding or continue the "
                "conversation."
            ),
            examples=(
                (_CIMA_D1, "Do you remember how to say the plant?"),
                (
                    _CIMA_D3,
                    "great but what color is the cat? and who is behind the cat, "
                    "how do you say bunny?",
                ),
                (_CIMA_D_FRONT, "Do you know the word for tree in Italian?"),
            ),
        ),
        ConceptualTool(
            name="Correction",
            description=(
                "The teacher corrects a mistake or addresses a misconception a "
                "student has."
            ),
            examples=(
                (_CIMA_D_BED, "Remember, 'behind' is 'e dietro il' in Italian."),
                (
                    "Teacher: Please try to fill in the blank in Italian.\t"
                    "Student: e si cima ell yellow table",
                    "'Yellow Table' is incorrect.",
                ),
                (
                    "Teacher: 'Is Behind The' is 'e dietro il'. Please try to "
                    "fill in the blank in Italian.\tStudent: what is blue in "
                    "italian?\tTeacher: Can you give me your best guess?\t"
                    "Student: blueo",
                    "no, it's blu.",
                ),
            ),
        ),
        ConceptualTool(
            name="Confirmation",
            description=(
                "The teacher confirms a student’s answer or understanding "
                "is correct."
            ),
            examples=(
                (_CIMA_D_BED, "correct"),
                (
                    "Teacher: 'Is Under The' is 'e sotto il'. Please try to fill "
                    "in the blank in Italian.\tStudent: How do you say bed in "
                    "Italian?\tTeacher: il ('the') is used for when the following "
                    "word (letto) is masculine. Words in Italian have a gender "
                    "associated with them (either masculine or feminine), even "
                    "when the word is an object, concepts, or abstract ideas.\t"
                    "Student: So, letto means bed?\tTeacher: Remember that  'bed' "
                    "is  'letto'\tStudent: Ok, I think I have it then,",
                    "Great! Let's go for it",
                ),
                (
                    "Teacher: Please try to fill in the blank in Italian.\t"
                    "Student: il gatto è vicino all'albero verde",
                    "Very good, that's correct!",
                ),
            ),
        ),
        ConceptualTool(
            name="Others",
            description=(
                "Refers to any strategy or approach that does not fall within "
                "the predefined categories."
            ),
            examples=(
                (
                    "Teacher: 'Is Behind The' is 'e dietro la'. Please try to "
                    "fill in the blank in Italian.\tStudent: what green is in "
                    "Italian again?\tTeacher: OK,  'green' is 'verde'\tStudent: "
                    "Right! What is behind in Italian?\tTeacher: Well,  'is "
                    "behind the' is 'e dietro la'\tStudent: Oh yeah! So the "
                    "first part is 'la borsa e dietro la verde'. What is box "
                    "again?\tTeacher: Remember that  'box' is  'scatola'\t"
                    "Student: la borsa e dietri la verde scatola\tTeacher: "
                    "Prepositional phrases separate the two noun phrases.\t"
                    "Student: Can you elaborate?",
                    "'E dietro la' is a prepositional phrase which comes between "
                    "the two noun phrases, 'la borsa' and 'scatola verde.'",
                ),
                (
                    "Teacher: 'Bunny' is 'coniglio'. Please try to fill in the "
                    "blank in Italian.\tStudent: e fronte il greene coniglio\t"
                    "Teacher: Well,  'is in front of the' is  'e di fronte al'\t"
                    "Student: e di fronte al greenee coniglio",
                    "'Greenee'? Oh, no. I don't think so!",
                ),
                (
                    "Teacher: Please try to fill in the blank in Italian.\t"
                    "Student: how do you say box?\tTeacher: Remember that  'box' "
                    "is  'scatola'\tStudent: e dentro de la scatola amarilla",
                    "You got most of it.",
                ),
            ),
        ),
    ),
)

# ---------------------------------------------------------------------------
# PsyQA: seven counseling strategies (helping-skills taxonomy)

PSYQA_STRATEGIES = ToolSet(
    tools=(
        ConceptualTool(
            name="Information",
            description=(
                "The counselor provides factual knowledge or psychoeducation "
                "relevant to the help-seeker's situation."
            ),
            examples=(
                (
                    "Seeker: 我最近一到晚上就心跳加速，是不是身体出了问题？",
                    "焦虑情绪本身就会引起心跳加速、出汗等身体反应，这是神经系统的正常应激表现。",
                ),
            ),
        ),
        ConceptualTool(
            name="Direct Guidance",
            description=(
                "The counselor gives concrete suggestions or actionable advice "
                "for the help-seeker to follow."
            ),
            examples=(
                (
                    "Seeker: 我不知道该怎么缓解每天的压力。",
                    "建议你每天固定留出半小时散步或运动，并在睡前做几分钟深呼吸练习。",
                ),
            ),
        ),
        ConceptualTool(
            name="Approval and Reassurance",
            description=(
                "The counselor affirms the help-seeker's feelings and provides "
                "emotional support and encouragement."
            ),
            examples=(
                (
                    "Seeker: 我觉得自己很没用，什么都做不好。",
                    "你能在这样的压力下坚持到现在，已经非常不容易了，你的感受是完全可以理解的。",
                ),
            ),
        ),
        ConceptualTool(
            name="Restatement",
            description=(
                "The counselor rephrases the help-seeker's statements to show "
                "understanding and clarify the problem."
            ),
            examples=(
                (
                    "Seeker: 我和室友闹矛盾了，现在住在一起很尴尬，也不想回宿舍。",
                    "听起来和室友的矛盾让你觉得宿舍不再是一个放松的地方，甚至开始回避它。",
                ),
            ),
        ),
        ConceptualTool(
            name="Interpretation",
            description=(
                "The counselor goes beyond what the help-seeker has said to "
                "offer a new perspective on their experience."
            ),
            examples=(
                (
                    "Seeker: 我总是忍不住和别人比较，越比越难受。",
                    "不断比较的背后，也许是你对自己价值的不确定，希望通过别人来确认自己。",
                ),
            ),
        ),
        ConceptualTool(
            name="Self-disclosure",
            description=(
                "The counselor shares a personal experience or feeling to build "
                "rapport with the help-seeker."
            ),
            examples=(
                (
                    "Seeker: 考试失利以后我一直缓不过来，觉得别人都比我强。",
                    "我也经历过一次重要考试的失败，当时同样觉得抬不起头，后来才发现那并不能定义我。",
                ),
            ),
        ),
        ConceptualTool(
            name="Others",
            description=(
                "Refers to any strategy or approach that does not fall within "
                "the predefined categories."
            ),
            examples=(
                (
                    "Seeker: 谢谢你听我说这些。",
                    "愿意说出来就是很好的开始，随时欢迎你回来聊聊。",
                ),
            ),
        ),
    ),
)

# ---------------------------------------------------------------------------
# Personas

_FOCUS_EXECUTOR = (
    "Play the role of SYSTEM and generate a helpful response for the following "
    "dialogue. To assist you, we provide some corresponding knowledge that "
    "might be helpful. Notice that some of this information contains noise so "
    "you should trust them with caution."
)

FOCUS_PERSONAS = {
    "thinker": (
        "You need to analyze the ongoing conversation and carefully infer the "
        "internal status exhibited during the conversation about the USER, such "
        "as the user's present preferences and status (starting with I know the "
        "USER ....), then you need to anticipate the outline of the plan to "
        "response the last turn of USER based on the internal status, including "
        "the goal of each step and connections between different steps."
    ),
    "planner": (
        "You should carefully consider a plan in which two external knowledge "
        "sources are sequentially called to retrieve evidence for generating "
        "the final response step-by-step. Make sure to outline the objectives "
        "at each step of the plan and anticipate the content of useful "
        "information that may be stored in the corresponding knowledge base. "
        "Then, provide a detailed description of the function calls to clarify "
        "the process further. For each plan, indicate which external source, "
        "along with the source input, is used to retrieve evidence. We can "
        "store this evidence in variable #So, which can be referenced by "
        "subsequent steps. (Plan, #So1, Plan, #So2, ...)"
    ),
    "executor": _FOCUS_EXECUTOR,
    "cot": _FOCUS_EXECUTOR,
    "chameleon": (
        "You need to act as a policy model, that given a dialogue and a modular "
        "set, determines the sequence of modules that can be executed "
        "sequentially can solve the question."
    ),
}

_CIMA_THINKER = (
    "You are a teacher who helps a student translate a phrase from English to "
    "Italian. You need to infer the student's confusion at the current step "
    "and what is the correct direction for the student to the final solution."
)
_CIMA_COT = (
    "You are a teacher who helps a student translate a phrase from English to "
    "Italian. You need to adopt strategies that conform with some educational "
    "conversational norms, such as providing hints versus asking questions in "
    "appropriate contexts according to the student's status. Let's think step "
    "by step."
)

CIMA_PERSONAS = {
    "thinker": _CIMA_THINKER,
    "planner_executor": (
        "You are a teacher who helps a student translate a phrase from English "
        "to Italian. You need to adopt strategies that conform with some "
        "educational conversational norms, such as providing hints versus "
        "asking questions in appropriate contexts."
    ),
    "cot": _CIMA_COT,
    "chameleon": (
        "You are a teacher who helps a student translate a phrase from English "
        "to Italian. Given a dialogue and a strategy set, determine the "
        "sequence of strategies that can be executed sequentially to guide the "
        "student."
    ),
}

_PSYQA_THINKER = (
    "You are a professional counselor who replies to help-seekers on a "
    "counseling platform. You need to infer the help-seeker's emotional state "
    "and underlying needs at the current step and what is the correct "
    "direction to support them."
)

PSYQA_PERSONAS = {
    "thinker": _PSYQA_THINKER,
    "planner_executor": (
        "You are a professional counselor who replies to help-seekers on a "
        "counseling platform. You need to adopt support strategies that "
        "conform with professional counseling practice, such as reassuring the "
        "help-seeker versus giving direct guidance in appropriate contexts."
    ),
    "cot": (
        "You are a professional counselor who replies to help-seekers on a "
        "counseling platform. You need to adopt support strategies that "
        "conform with professional counseling practice, such as reassuring the "
        "help-seeker versus giving direct guidance in appropriate contexts "
        "according to the help-seeker's status. Let's think step by step."
    ),
    "chameleon": (
        "You are a professional counselor who replies to help-seekers on a "
        "counseling platform. Given a dialogue and a strategy set, determine "
        "the sequence of strategies that can be executed sequentially to "
        "support the help-seeker."
    ),
}

# ---------------------------------------------------------------------------
# Profiles


@dataclass(frozen=True)
class DatasetProfile:
    personas: dict[str, str]
    source_toolset: ToolSet | None = None
    strategy_toolset: ToolSet | None = None
    module_toolset: ToolSet | None = None
    source_aliases: dict[str, str] = field(default_factory=dict)

    @property
    def is_multi_source(self) -> bool:
        return self.source_toolset is not None

    def resolve_source(self, name: str) -> str:
        """Canonical lowercase corpus name for a planned source, or UnknownTool."""
        if self.source_toolset is None:
            raise UnknownTool(name)
        lowered = name.lower()
        resolved = self.source_aliases.get(lowered, lowered)
        if resolved not in {t.name.lower() for t in self.source_toolset.tools}:
            raise UnknownTool(name)
        return resolved


PROFILES: dict[SchemaKind, DatasetProfile] = {
    SchemaKind.FOCUS: DatasetProfile(
        personas=FOCUS_PERSONAS,
        source_toolset=FOCUS_SOURCES,
        module_toolset=FOCUS_MODULES,
        source_aliases={
            "knowledge": "document",
            "persona_retrieval": "persona",
            "knowledge_retrieval": "document",
            "document_retrieval": "document",
        },
    ),
    SchemaKind.CIMA: DatasetProfile(
        personas=CIMA_PERSONAS,
        strategy_toolset=CIMA_STRATEGIES,
    ),
    SchemaKind.PSYQA: DatasetProfile(
        personas=PSYQA_PERSONAS,
        strategy_toolset=PSYQA_STRATEGIES,
    ),
}


def profile_for(kind: SchemaKind) -> DatasetProfile:
    return PROFILES[kind]
